#include "sweep.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "common.h"
#include "core/sim_high.h"
#include "core/sim_low.h"
#include "graph/generators.h"
#include "graph/instance_cache.h"
#include "graph/intersect.h"
#include "graph/triangles.h"
#include "harness.h"
#include "lower_bounds/boolean_matching.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/mu_distribution.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kGnpN = 30000;
constexpr std::size_t kMuInstances = 8;   // bench_sim_lb default
constexpr std::size_t kBmInstances = 10;  // bench_bm_lb default
// Builder tags for this benchmark's instance-cache keys.
constexpr std::uint64_t kGenMu = 0xBE01;
constexpr std::uint64_t kGenBm = 0xBE02;

struct MuInst {
  tft::MuInstance mu;
  std::vector<tft::PlayerInput> players;
};
std::size_t approx_bytes(const MuInst& c) noexcept {
  return sizeof(c) + tft::approx_bytes(c.mu.graph) + tft::approx_bytes(c.players);
}

struct BmInst {
  std::vector<tft::PlayerInput> players;
};
std::size_t approx_bytes(const BmInst& c) noexcept {
  return sizeof(c) + tft::approx_bytes(c.players);
}

/// The search settings bench_sim_lb and bench_bm_lb use.
tft::BudgetSearchOptions search_options() {
  tft::BudgetSearchOptions o;
  o.target_success = 0.8;
  o.trials_per_budget = 24;
  o.budget_lo = 4;
  o.budget_hi = 1ULL << 26;
  o.refine_steps = 5;
  return o;
}

/// Why a finished search is wrong, or empty.
std::string check_search(const tft::BudgetSearchResult& r, const tft::BudgetSearchOptions& o) {
  if (!r.found) return "no passing budget found";
  if (r.min_budget < o.budget_lo || r.min_budget > o.budget_hi) return "min budget out of range";
  for (const auto& pt : r.curve) {
    if (pt.budget == r.min_budget) {
      return pt.success.rate() + 1e-12 >= o.target_success ? "" : "min budget below target";
    }
  }
  return "min budget missing from the search curve";
}

/// Distinct instance indices a search touched.
class IndexSet {
 public:
  void add(std::uint64_t i) { mask_.fetch_or(std::uint64_t{1} << (i % 64)); }
  [[nodiscard]] std::uint64_t count() const { return std::popcount(mask_.load()); }

 private:
  std::atomic<std::uint64_t> mask_{0};
};

template <typename Body>
double timed(Body&& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0);
}

}  // namespace

void Sweep::record(const TrialSample& s) {
  const std::lock_guard lock(mu_);
  trials_.push_back(s);
}

std::vector<TrialSample> Sweep::take_trials() {
  const std::lock_guard lock(mu_);
  return std::exchange(trials_, {});
}

CellResult Sweep::run_cell(std::size_t pass, std::size_t cell) {
  if (cell == 0) return gnp_cell(tft::mix_hash(0x5EE9, seed_, pass), /*reference_count=*/pass == 0);
  const std::uint64_t round = (cell - 1) / 5;
  const std::uint64_t s = tft::mix_hash(0x5EEA, tft::mix_hash(seed_, pass, round), 0);
  switch ((cell - 1) % 5) {
    case 0: return mu_cell(s, 256);
    case 1: return mu_cell(s, 1024);
    case 2: return bm_cell(s, 256);
    case 3: return bm_cell(s, 1024);
    default: return bm_cell(s, 4096);
  }
}

CellResult Sweep::gnp_cell(std::uint64_t seed, bool reference_count) {
  CellResult r;
  r.name = "gnp";
  r.instances = 1;
  tft::Rng rng(seed);
  const double d = std::sqrt(static_cast<double>(kGnpN));
  tft::Graph g;
  std::vector<tft::Triangle> packing;
  std::uint64_t count = 0;
  std::optional<tft::Triangle> found;
  r.generate_s = timed([&] { g = tft::gen::gnp(kGnpN, d / kGnpN, rng); });
  // certify_eps_far(g, eps) is "greedy packing size >= eps * m": the packing
  // is the certificate, kept here so the oracle can check it.
  r.packing_s = timed([&] { packing = tft::greedy_triangle_packing(g, rng); });
  r.count_s = timed([&] { count = tft::count_triangles(g); });
  r.find_s = timed([&] { found = tft::find_triangle(g); });
  r.seconds = r.generate_s + r.packing_s + r.count_s + r.find_s;

  // Oracle: the packing is edge-disjoint triangles of g, a found triangle is
  // real, and (once per run, as it costs as much as the count) the count
  // agrees with the scalar reference kernel.
  std::vector<std::uint64_t> used;
  used.reserve(packing.size() * 3);
  const auto key = [](tft::Vertex u, tft::Vertex v) {
    return (std::uint64_t{std::min(u, v)} << 32) | std::max(u, v);
  };
  for (const auto& t : packing) {
    if (!g.contains(t)) {
      r.failure = "packing holds a non-triangle";
      return r;
    }
    used.push_back(key(t.a, t.b));
    used.push_back(key(t.b, t.c));
    used.push_back(key(t.a, t.c));
  }
  std::sort(used.begin(), used.end());
  if (std::adjacent_find(used.begin(), used.end()) != used.end()) {
    r.failure = "packing triangles share an edge";
  } else if (count < packing.size()) {
    r.failure = "count below packing size";
  } else if (found.has_value() != (count > 0) || (found && !g.contains(*found))) {
    r.failure = "find_triangle disagrees with the count";
  } else if (reference_count) {
    const auto variant = tft::kernel::variant();
    tft::kernel::set_variant(tft::kernel::Variant::kScalar);
    const std::uint64_t reference = tft::count_triangles(g);
    tft::kernel::set_variant(variant);
    if (reference != count) r.failure = "count differs from the scalar kernel";
  }
  return r;
}

CellResult Sweep::mu_cell(std::uint64_t seed, std::uint32_t side) {
  CellResult r;
  r.name = "mu" + std::to_string(side);
  constexpr double kGamma = 0.9;
  IndexSet touched;
  auto& cache = tft::InstanceCache::global();
  const auto before = cache.stats();
  const tft::BudgetTrial trial = [&](std::uint64_t budget, std::uint64_t trial_index) {
    const std::uint64_t idx = trial_index % kMuInstances;
    touched.add(idx);
    const tft::InstanceKey key{kGenMu, side, tft::InstanceKey::pack_param(kGamma), 3, seed, idx};
    const auto inst = cache.get_or_build<MuInst>(key, [&] {
      tft::Rng rng = tft::derive_rng(seed, idx);
      MuInst c;
      c.mu = tft::sample_mu(side, kGamma, rng);
      c.players = tft::partition_mu_three(c.mu);
      return c;
    });
    const auto t0 = Clock::now();
    tft::SimHighOptions o;
    o.eps = 0.3;
    o.c = 3.0;
    o.seed = 0x51B0 + trial_index;
    o.average_degree = std::max(1.0, inst->mu.graph.average_degree());
    o.cap_edges_per_player = budget;
    const tft::SimResult res = tft::sim_high_find_triangle(inst->players, o);
    TrialSample sample;
    sample.seconds = seconds_since(t0);
    sample.bits = res.total_bits;
    sample.ok = !res.triangle || inst->mu.graph.contains(*res.triangle);
    record(sample);
    return res.triangle.has_value();
  };
  const tft::BudgetSearchOptions opts = search_options();
  tft::BudgetSearchResult res;
  r.seconds = timed([&] { res = tft::find_min_budget(trial, opts); });
  const auto after = cache.stats();
  r.instances = touched.count();
  r.probes = res.curve.size();
  r.cache_hits = after.hits - before.hits;
  r.cache_lookups = r.cache_hits + (after.misses - before.misses);
  r.failure = check_search(res, opts);
  return r;
}

CellResult Sweep::bm_cell(std::uint64_t seed, std::uint32_t pairs) {
  CellResult r;
  r.name = "bm" + std::to_string(pairs);
  IndexSet touched;
  auto& cache = tft::InstanceCache::global();
  const auto before = cache.stats();
  const tft::BudgetTrial trial = [&](std::uint64_t budget, std::uint64_t trial_index) {
    const std::uint64_t idx = trial_index % kBmInstances;
    touched.add(idx);
    const tft::InstanceKey key{kGenBm, pairs, tft::InstanceKey::pack_param(1.0), 2, seed, idx};
    const auto inst = cache.get_or_build<BmInst>(key, [&] {
      tft::Rng rng = tft::derive_rng(seed, idx);
      BmInst c;
      c.players = tft::bm_two_players(tft::sample_bm(pairs, /*zero_case=*/true, rng));
      return c;
    });
    const auto t0 = Clock::now();
    tft::SimLowOptions o;
    o.average_degree = 2.0;
    o.c = 4.0;
    o.seed = 0xB30 + trial_index;
    o.cap_edges_per_player = budget;
    const tft::SimResult res = tft::sim_low_find_triangle(inst->players, o);
    TrialSample sample;
    sample.seconds = seconds_since(t0);
    sample.bits = res.total_bits;
    sample.ok = !res.triangle || is_triangle_of(inst->players, *res.triangle);
    record(sample);
    return res.triangle.has_value();
  };
  const tft::BudgetSearchOptions opts = search_options();
  tft::BudgetSearchResult res;
  r.seconds = timed([&] { res = tft::find_min_budget(trial, opts); });
  const auto after = cache.stats();
  r.instances = touched.count();
  r.probes = res.curve.size();
  r.cache_hits = after.hits - before.hits;
  r.cache_lookups = r.cache_hits + (after.misses - before.misses);
  r.failure = check_search(res, opts);
  return r;
}

/// Start-up a user of the sweep pays before the first cell: the thread pool
/// spins up, and the generator and triangle kernels, with their per-thread
/// scratch, are warmed on a gnp graph a tenth the size of the grid's.
void sweep_warmup() {
  std::vector<int> touch(1024);
  tft::parallel_for(touch.size(), [&](std::size_t i) { touch[i] = 1; });
  tft::Rng rng(7);
  constexpr tft::Vertex kN = kGnpN / 10;
  const tft::Graph g = tft::gen::gnp(kN, std::sqrt(static_cast<double>(kN)) / kN, rng);
  (void)tft::greedy_triangle_packing(g, rng);
  (void)tft::count_triangles(g);
  (void)tft::find_triangle(g);
}

/// `sweep --seed=S --seconds=T --out=DIR`: whole passes of the grid until T
/// seconds of cell time have run. Writes DIR/cells (one line per cell) and
/// DIR/trials (one line per protocol run). `--setup-only` stops once ready.
int cmd_sweep(const tft::Flags& flags) {
  sweep_warmup();
  std::printf("ready\n");
  std::fflush(stdout);
  if (flags.get_bool("setup-only", false)) return 0;

  const std::string dir = flags.get_string("out", ".");
  const double seconds = flags.get_double("seconds", 10);
  Sweep sweep(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  std::FILE* cells = std::fopen((dir + "/cells").c_str(), "w");
  std::FILE* trials = std::fopen((dir + "/trials").c_str(), "w");
  if (cells == nullptr || trials == nullptr) throw std::runtime_error("sweep: cannot write " + dir);
  double elapsed = 0;
  for (std::size_t pass = 0; elapsed < seconds; ++pass) {
    for (std::size_t c = 0; c < Sweep::kCells; ++c) {
      const CellResult r = sweep.run_cell(pass, c);
      elapsed += r.seconds;
      std::fprintf(cells, "%zu %s %.9f %llu %s\n", pass, r.name.c_str(), r.seconds,
                   static_cast<unsigned long long>(r.instances),
                   r.failure.empty() ? "ok" : r.failure.c_str());
    }
    for (const TrialSample& t : sweep.take_trials()) {
      std::fprintf(trials, "%zu %.9f %llu %d\n", pass, t.seconds,
                   static_cast<unsigned long long>(t.bits), t.ok ? 1 : 0);
    }
  }
  const auto cache = tft::InstanceCache::global().stats();
  std::fprintf(cells, "peak_rss_kb %llu cache_entries %zu cache_bytes %zu\n",
               static_cast<unsigned long long>(tft::peak_rss_kb()), cache.entries, cache.bytes);
  std::fclose(cells);
  std::fclose(trials);
  return 0;
}

}  // namespace perfbench
