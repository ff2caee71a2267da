// perfbench_harness: the compiled half of the benchmark. run.py drives it;
// every subcommand reads its inputs from files run.py generated from the
// workload seed and writes plain-text results run.py parses.
//
//   load    open- or closed-loop client against a running tft_serviced
//   oracle  expected verdict/bits/witness for every answered session,
//           computed in-process on the simulated path
//   sweep   the in-process research grid (sweep.cpp)
//   trace   the per-layer traced replay (trace.cpp)
//   replay  trace's concurrent coordinator replay, run as a child process
//           so a crash of the program under test is recorded, not fatal
//   host    the triangle-kernel variant the program resolves on this CPU

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/tester.h"
#include "graph/graph.h"
#include "graph/intersect.h"
#include "harness.h"
#include "util/flags.h"

namespace perfbench {
namespace {

struct LoadRecord {
  Outcome outcome = Outcome::kNotSent;
  double due_s = 0, send_s = 0, done_s = 0;
  ClientResult res;
};

int cmd_load(const tft::Flags& flags) {
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const std::vector<ScheduledSpec> specs = read_specs(flags.get_string("specs", ""));
  const bool closed = flags.get_bool("closed", false);
  const int threads = closed ? 1 : static_cast<int>(flags.get_int("threads", 4));
  const auto deadline = std::chrono::milliseconds(flags.get_int("deadline-ms", 1000));
  const double window_s = flags.get_double("window-s", 1e9);
  const std::string out_path = flags.get_string("out", "");

  std::vector<LoadRecord> recs(specs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> attempted{0};
  // Open loop: a short lead so every connection thread is parked before the
  // first session falls due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(closed ? 0 : 20);
  const auto rel = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      LoadRecord& r = recs[i];
      Clock::time_point due;
      if (closed) {
        due = Clock::now();
        if (rel(due) >= window_s) return;  // the window closed: not attempted
      } else {
        due = t0 + std::chrono::microseconds(specs[i].due_us);
        std::this_thread::sleep_until(due);
      }
      attempted.fetch_add(1);
      const Clock::time_point send = Clock::now();
      r.due_s = rel(due);
      r.send_s = rel(send);
      if (send >= due + deadline) {
        r.outcome = Outcome::kNotSent;
        r.done_s = r.send_s;
        continue;
      }
      r.res = request_until(port, specs[i].spec, due + deadline);
      r.done_s = rel(Clock::now());
      r.outcome = r.res.outcome;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  const double end_s = rel(Clock::now());

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + out_path);
  std::fprintf(out, "end %.9f\n", end_s);
  for (std::size_t i = 0; i < attempted.load() && i < recs.size(); ++i) {
    const LoadRecord& r = recs[i];
    const auto& rep = r.res.reply;
    std::string err = r.res.error;
    std::replace(err.begin(), err.end(), '\n', ' ');
    std::fprintf(out, "%zu %d %.9f %.9f %.9f %llu %llu %llu %llu %llu %d %d ", i,
                 static_cast<int>(r.outcome), r.due_s, r.send_s, r.done_s,
                 static_cast<unsigned long long>(rep.charged_bits),
                 static_cast<unsigned long long>(rep.payload_bits),
                 static_cast<unsigned long long>(rep.messages),
                 static_cast<unsigned long long>(rep.frames),
                 static_cast<unsigned long long>(rep.wire_bytes), rep.accounting_exact ? 1 : 0,
                 rep.conformance_ok ? 1 : 0);
    if (rep.triangle) {
      std::fprintf(out, "%u,%u,%u", rep.triangle->a, rep.triangle->b, rep.triangle->c);
    } else {
      std::fprintf(out, "-");
    }
    std::fprintf(out, " %s\n", err.c_str());
  }
  std::fclose(out);
  return 0;
}

/// Reads a load results file; for every answered session (triangle-free or
/// triangle) whose index falls in this shard, writes
/// `idx expected_bits expected_triangle witness_ok`.
int cmd_oracle(const tft::Flags& flags) {
  const std::vector<ScheduledSpec> specs = read_specs(flags.get_string("specs", ""));
  const auto shard = static_cast<std::size_t>(flags.get_int("shard", 0));
  const auto shards = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("shards", 1)));
  std::ifstream in(flags.get_string("results", ""));
  std::FILE* out = std::fopen(flags.get_string("out", "").c_str(), "w");
  if (!in || out == nullptr) throw std::runtime_error("oracle: cannot open its files");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("end ", 0) == 0) continue;
    std::istringstream ls(line);
    std::size_t idx = 0;
    int outcome = 0;
    std::string skip, tri;
    ls >> idx >> outcome;
    for (int f = 0; f < 10; ++f) ls >> skip;
    ls >> tri;
    if (outcome > 1 || idx % shards != shard || idx >= specs.size()) continue;
    const auto& spec = specs[idx].spec;
    const std::vector<tft::PlayerInput> players = tft::service::build_players(spec);
    const tft::TestReport expect =
        tft::test_triangle_freeness(players, tft::service::tester_options(spec));
    int witness_ok = 1;
    if (tri != "-") {
      tft::Triangle t;
      if (std::sscanf(tri.c_str(), "%u,%u,%u", &t.a, &t.b, &t.c) != 3) {
        witness_ok = 0;
      } else {
        witness_ok = is_triangle_of(players, t) ? 1 : 0;
      }
    }
    std::fprintf(out, "%zu %llu %d %d\n", idx, static_cast<unsigned long long>(expect.bits),
                 expect.triangle ? 1 : 0, witness_ok);
  }
  std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness load|oracle|sweep|trace|replay|host [--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const tft::Flags flags(argc - 1, argv + 1);
  try {
    if (cmd == "load") return perfbench::cmd_load(flags);
    if (cmd == "oracle") return perfbench::cmd_oracle(flags);
    if (cmd == "sweep") return perfbench::cmd_sweep(flags);
    if (cmd == "trace") return perfbench::cmd_trace(flags);
    if (cmd == "replay") return perfbench::cmd_replay(flags);
    if (cmd == "host") {
      std::printf("%s\n", tft::kernel::to_string(tft::kernel::resolved_variant()));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 3;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
