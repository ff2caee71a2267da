// The traced run: per-layer numbers from spans the benchmark records around
// its own calls into each layer's public functions. Tracing inside src/ is
// not used; a layer's self time is its span minus the spans of the layers
// it calls, measured on the same spec one call at a time.
//
// Replay order per spec (one shared session id per spec):
//   1 spec codec  2 build_players  3 simulated test_triangle_freeness
//   4 the same under a NetSession sink  5 ServiceCoordinator  6 ServiceDaemon
//
// `replay` is the concurrent half for svc-small: the arrival schedule is
// replayed against an in-process ServiceCoordinator while its queue depth
// is sampled. It runs as its own process so that a crash of the program
// under test is recorded by run.py instead of ending the traced run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <thread>

#include "comm/channel.h"
#include "comm/conformance.h"
#include "common.h"
#include "harness.h"
#include "net/arq.h"
#include "net/error.h"
#include "net/mpsc.h"
#include "net/runtime.h"
#include "service/coordinator.h"
#include "service/daemon.h"
#include "sweep.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

struct Span {
  std::size_t session;
  const char* layer;
  double seconds;
};

/// In-memory span log. With `enabled` false the calls still run and are
/// timed for nothing, which is the untraced replay trace.overhead_frac is
/// measured against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  template <typename Body>
  void span(std::size_t session, const char* layer, Body&& body) {
    if (!enabled_) {
      body();
      return;
    }
    const auto t0 = Clock::now();
    body();
    spans_.push_back({session, layer, seconds_since(t0)});
  }

  /// Duration of (session, layer); 0 when absent.
  [[nodiscard]] double get(std::size_t session, const std::string& layer) const {
    for (const Span& s : spans_) {
      if (s.session == session && layer == s.layer) return s.seconds;
    }
    return 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

struct ServicePlane {
  tft::service::ServiceConfig cfg;
  tft::net::NetConfig net;
};

/// The daemon settings of each service workload (run.py WORKLOADS).
ServicePlane plane_for(bool bulk) {
  ServicePlane p;
  p.cfg.net.transport = bulk ? tft::net::TransportKind::kSocket : tft::net::TransportKind::kInProc;
  p.cfg.net.num_shards = bulk ? 1 : 2;
  p.cfg.max_live_sessions = 4;
  p.cfg.max_pending = 16;
  p.net = p.cfg.net;
  p.net.num_shards = 1;
  return p;
}

/// Per-session counts along the bit chain, from the spans' own outputs.
struct Counts {
  double charged_bits = 0, messages = 0, payload_bits = 0, frames = 0, wire_bytes = 0;
};

/// An in-process daemon and coordinator with one workload's settings.
struct Servers {
  explicit Servers(const ServicePlane& p) : plane(p), daemon(p.cfg), coordinator(p.cfg) {}
  ServicePlane plane;
  tft::service::ServiceDaemon daemon;
  tft::service::ServiceCoordinator coordinator;
};

/// Replays `specs` through layers 1..6, one call at a time.
void replay_serial(const std::vector<ScheduledSpec>& specs, Servers& servers, Tracer& tr,
                   Counts& counts, double& conformance_s, double& codec_ns) {
  const ServicePlane& plane = servers.plane;
  auto& daemon = servers.daemon;
  auto& coordinator = servers.coordinator;
  constexpr int kCodecReps = 50;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const tft::service::SessionSpec& spec = specs[i].spec;
    const tft::TesterOptions opts = tft::service::tester_options(spec);

    tft::service::ServiceReply sample_reply;
    sample_reply.status = tft::service::ReplyStatus::kTriangle;
    sample_reply.triangle = tft::Triangle(1, 2, 3);
    sample_reply.charged_bits = 1000003;
    const auto t_codec = Clock::now();
    tr.span(i, "codec", [&] {
      for (int r = 0; r < kCodecReps; ++r) {
        const auto bytes = tft::service::encode_spec(spec);
        if (!(tft::service::decode_spec(bytes) == spec)) throw std::runtime_error("spec codec");
        const auto rbytes = tft::service::encode_reply(sample_reply);
        if (!(tft::service::decode_reply(rbytes) == sample_reply)) {
          throw std::runtime_error("reply codec");
        }
      }
    });
    codec_ns += seconds_since(t_codec) * 1e9 / kCodecReps;

    std::vector<tft::PlayerInput> players;
    tr.span(i, "generate", [&] { players = tft::service::build_players(spec); });

    tft::TestReport sim;
    tft::TranscriptCapture capture;
    tr.span(i, "protocol", [&] { sim = tft::test_triangle_freeness(players, opts); });
    const auto t_conf = Clock::now();
    tr.span(i, "conformance", [&] {
      for (const auto& run : capture.runs()) {
        if (!tft::check_conformance(run.model, run.transcript).ok()) {
          throw std::runtime_error("conformance violated in the simulated run");
        }
      }
    });
    conformance_s += seconds_since(t_conf);
    counts.charged_bits += static_cast<double>(sim.bits);
    for (const auto& run : capture.runs()) {
      for (std::size_t j = 0; j < run.transcript.num_players(); ++j) {
        counts.messages += static_cast<double>(run.transcript.upstream_messages(j) +
                                               run.transcript.downstream_messages(j));
      }
    }

    tft::net::WireStats wire;
    tr.span(i, "net", [&] {
      tft::net::NetSession session(spec.k, plane.net);
      tft::TestReport executed;
      {
        const tft::ChannelSinkScope scope(&session);
        executed = tft::test_triangle_freeness(players, opts);
      }
      wire = session.finish();
      if (executed.bits != sim.bits) throw std::runtime_error("executed run charged other bits");
    });
    counts.payload_bits += static_cast<double>(wire.payload_bits());
    counts.frames += static_cast<double>(wire.frames_delivered);
    counts.wire_bytes += static_cast<double>(wire.wire_bytes);

    tr.span(i, "coordinator", [&] {
      const tft::service::SessionOutcome out = coordinator.submit(spec).get();
      if (out.status == tft::service::ReplyStatus::kError) throw std::runtime_error(out.error);
    });
    tr.span(i, "daemon", [&] {
      const tft::service::ServiceReply reply = tft::service::request(daemon.port(), spec);
      if (reply.status == tft::service::ReplyStatus::kError) throw std::runtime_error(reply.error);
      if (reply.charged_bits != sim.bits) throw std::runtime_error("daemon charged other bits");
    });
  }
}

/// Per-layer self times, each the median over the sample of the per-spec
/// differences (session times vary far more than a layer's own cost, so a
/// mean would be dominated by the slowest specs).
struct LayerTimes {
  double daemon_self = 0, coordinator_self = 0, net_self = 0, protocol = 0, generate = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

LayerTimes self_times(const Tracer& tr, std::size_t n) {
  std::vector<double> daemon, coordinator, net_self, protocol, generate;
  for (std::size_t i = 0; i < n; ++i) {
    const double gen = tr.get(i, "generate"), proto = tr.get(i, "protocol");
    const double net = tr.get(i, "net"), coord = tr.get(i, "coordinator");
    daemon.push_back(tr.get(i, "daemon") - coord);
    // The coordinator regenerates the instance and runs the executed
    // session itself.
    coordinator.push_back(coord - gen - net);
    net_self.push_back(net - proto);
    protocol.push_back(proto);
    generate.push_back(gen);
  }
  return {median(daemon), median(coordinator), median(net_self), median(protocol),
          median(generate)};
}

/// ns per serialize_frame_into of a data frame of `payload_bits`, and CRC
/// throughput over the serialized bytes in MB/s.
std::pair<double, double> frame_costs(std::uint64_t payload_bits) {
  tft::net::Frame f;
  f.header.type = tft::net::FrameType::kData;
  f.header.src = 1;
  f.header.dst = 4;
  f.header.seq = 7;
  f.header.phase = 2;
  f.header.payload_bits = payload_bits;
  f.header.session = 3;
  f.payload = tft::net::make_filler_payload(f.header);
  std::vector<std::uint8_t> out;
  const int reps = payload_bits > (1u << 20) ? 20 : 20000;
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) tft::net::serialize_frame_into(f, out);
  const double encode_ns = seconds_since(t0) * 1e9 / reps;
  std::uint32_t sink = 0;
  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) sink ^= tft::net::crc32(out, sink);
  const double crc_s = seconds_since(t0);
  if (sink == 0xFFFFFFFFu) std::printf(" ");  // keep the CRC loop observable
  return {encode_ns, static_cast<double>(out.size()) * reps / crc_s / 1e6};
}

/// ns per ArqSenderWindow admit + cumulative ack of one small frame.
double arq_cost(std::uint64_t payload_bits) {
  const tft::net::ArqPolicy policy = tft::net::ArqPolicy::windowed();
  tft::net::ArqSenderWindow window(policy);
  tft::net::Frame f;
  f.header.payload_bits = payload_bits;
  f.payload.assign((payload_bits + 7) / 8, 0x5A);
  constexpr int kReps = 200000;
  std::uint32_t seq = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    f.header.seq = seq;
    window.admit(f);
    tft::net::AckInfo ack;
    ack.cumulative = seq;
    (void)window.on_ack(ack);
    seq = (seq + 1) % policy.seq_modulus;
  }
  return seconds_since(t0) * 1e9 / kReps;
}

/// ns per push + pop on the servicer's MPSC charge ring, uncontended.
double mpsc_cost() {
  struct Charge {
    std::uint64_t session, player, bits, phase;
  };
  tft::net::BoundedMpscQueue<Charge> q(1024);
  constexpr int kReps = 2000000;
  Charge c{1, 2, 3, 4}, out{};
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    c.bits = static_cast<std::uint64_t>(r);
    (void)q.try_push(c);
    (void)q.try_pop(out);
    sum += out.bits;
  }
  const double ns = seconds_since(t0) * 1e9 / kReps;
  if (sum == 42) std::printf(" ");
  return ns;
}

}  // namespace

/// `trace --small=F --bulk=F --seed=S --out=F`: writes `name value` lines.
int cmd_trace(const tft::Flags& flags) {
  const std::vector<ScheduledSpec> small = read_specs(flags.get_string("small", ""));
  const std::vector<ScheduledSpec> bulk = read_specs(flags.get_string("bulk", ""));
  std::map<std::string, double> out;

  // The svc-small sample, replayed untraced and traced in alternation so
  // that drift falls on both sides; the last traced replay is kept.
  Servers small_servers(plane_for(false));
  Tracer small_tr(true);
  Counts small_counts;
  double conformance_s = 0, codec_ns = 0;
  double untraced_s = 0, traced_s = 0;
  for (int round = 0; round < 2; ++round) {
    Counts c;
    double conf = 0, codec = 0;
    Tracer off(false);
    auto t0 = Clock::now();
    replay_serial(small, small_servers, off, c, conf, codec);
    untraced_s += seconds_since(t0);
    small_tr = Tracer(true);
    small_counts = Counts{};
    conformance_s = codec_ns = 0;
    t0 = Clock::now();
    replay_serial(small, small_servers, small_tr, small_counts, conformance_s, codec_ns);
    traced_s += seconds_since(t0);
  }
  out["trace.overhead_frac"] = traced_s / untraced_s - 1.0;

  const double ns = static_cast<double>(small.size());
  const LayerTimes sm = self_times(small_tr, small.size());
  out["service.daemon.self_s"] = sm.daemon_self;
  out["service.coordinator.self_s"] = sm.coordinator_self;
  out["service.spec.codec_ns"] = codec_ns / ns;
  out["comm.conformance_s"] = conformance_s / ns;
  out["core.protocol_s"] = sm.protocol;

  Servers bulk_servers(plane_for(true));
  Tracer bulk_tr(true);
  Counts bc;
  double bulk_conf = 0, bulk_codec = 0;
  replay_serial(bulk, bulk_servers, bulk_tr, bc, bulk_conf, bulk_codec);
  const double nb = static_cast<double>(bulk.size());
  const LayerTimes bm = self_times(bulk_tr, bulk.size());
  out["net.exec.self_s"] = bm.net_self;
  out["graph.generate_s"] = bm.generate;
  out["net.payload_bits_per_session"] = bc.payload_bits / nb;
  out["net.frames_per_session"] = bc.frames / nb;
  out["net.wire_bytes_per_session"] = bc.wire_bytes / nb;
  out["net.wire_over_payload"] = bc.wire_bytes * 8.0 / bc.payload_bits;
  out["comm.charged_bits_per_session"] = bc.charged_bits / nb;
  out["comm.messages_per_session"] = bc.messages / nb;

  // Frames shaped like svc-bulk's (the mean payload per frame) for encode
  // and CRC; like svc-small's for the per-frame ARQ and ring costs.
  const auto [encode_ns, crc_mb_s] =
      frame_costs(static_cast<std::uint64_t>(bc.payload_bits / std::max(1.0, bc.frames)));
  out["net.frame.encode_ns"] = encode_ns;
  out["net.frame.crc_mb_per_s"] = crc_mb_s;
  out["net.arq.admit_ack_ns"] = arq_cost(static_cast<std::uint64_t>(
      small_counts.payload_bits / std::max(1.0, small_counts.frames)));
  out["net.mpsc.push_pop_ns"] = mpsc_cost();

  // One pass of the sweep grid at the default pool width, then the same
  // pass on one worker.
  Sweep sweep(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  double pass_s = 0, search_s = 0, probes = 0, hits = 0, lookups = 0;
  std::size_t searches = 0;
  for (std::size_t c = 0; c < Sweep::kCells; ++c) {
    const CellResult r = sweep.run_cell(0, c);
    if (!r.failure.empty()) throw std::runtime_error("sweep cell " + r.name + ": " + r.failure);
    pass_s += r.seconds;
    if (c == 0) {
      out["graph.triangles.packing_s"] = r.packing_s;
      out["graph.triangles.count_s"] = r.count_s;
      out["graph.triangles.find_s"] = r.find_s;
    } else {
      search_s += r.seconds;
      probes += static_cast<double>(r.probes);
      hits += static_cast<double>(r.cache_hits);
      lookups += static_cast<double>(r.cache_lookups);
      ++searches;
    }
  }
  out["graph.instance_cache.hit_frac"] = hits / std::max(1.0, lookups);
  out["lower_bounds.min_budget_s"] = search_s / static_cast<double>(searches);
  out["lower_bounds.probes_per_search"] = probes / static_cast<double>(searches);
  const int width = tft::default_threads();
  tft::set_default_threads(1);
  Sweep serial(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  double serial_s = 0;
  for (std::size_t c = 0; c < Sweep::kCells; ++c) serial_s += serial.run_cell(0, c).seconds;
  tft::set_default_threads(width);
  out["util.parallel.speedup"] = serial_s / pass_s;

  std::FILE* f = std::fopen(flags.get_string("out", "").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write its output");
  for (const auto& [name, value] : out) std::fprintf(f, "%s %.9g\n", name.c_str(), value);
  std::fclose(f);
  return 0;
}

/// `replay --specs=F --out=F --threads=N`: svc-small's arrival schedule
/// against an in-process coordinator with the daemon's settings. Streams
/// `pending <n>` samples (every millisecond) and one `session <late_s>
/// <status>` line per submission, flushed as they come, then `done`.
int cmd_replay(const tft::Flags& flags) {
  const std::vector<ScheduledSpec> specs = read_specs(flags.get_string("specs", ""));
  const int threads = static_cast<int>(flags.get_int("threads", 4));
  std::FILE* f = std::fopen(flags.get_string("out", "").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("replay: cannot write its output");
  std::mutex out_mu;
  const auto emit = [&](const std::string& line) {
    const std::lock_guard lock(out_mu);
    std::fputs(line.c_str(), f);
    std::fflush(f);
  };

  tft::service::ServiceCoordinator coordinator(plane_for(false).cfg);
  std::atomic<bool> running{true};
  std::thread sampler([&] {
    std::string batch;
    int n = 0;
    while (running.load()) {
      batch += "pending " + std::to_string(coordinator.pending_sessions()) + "\n";
      if (++n % 50 == 0) {
        emit(batch);
        batch.clear();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    emit(batch);
  });
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < specs.size(); i = next.fetch_add(1)) {
        const auto due = t0 + std::chrono::microseconds(specs[i].due_us);
        std::this_thread::sleep_until(due);
        const double late = seconds_since(due);
        std::string status = "ok";
        try {
          const auto out = coordinator.submit(specs[i].spec).get();
          if (out.status == tft::service::ReplyStatus::kError) status = "error";
        } catch (const tft::net::NetError& e) {
          status = e.kind() == tft::net::NetErrorKind::kServiceBusy ? "busy" : "error";
        }
        char line[96];
        std::snprintf(line, sizeof(line), "session %.9f %s\n", late, status.c_str());
        emit(line);
      }
    });
  }
  for (auto& t : pool) t.join();
  running.store(false);
  sampler.join();
  emit("done\n");
  std::fclose(f);
  return 0;
}

}  // namespace perfbench
