#pragma once

// The `sweep` workload: a fixed research grid run in-process at library
// defaults (instance cache, transcript pool, adaptive budget search, auto
// kernel variant, default pool width, one submitting thread). One pass of
// the grid is kCells cells:
//   cell 0   gnp n=3e4, d=sqrt(n): generate, greedy packing (the
//            eps-farness certificate), triangle count, triangle find
//   then kSearchRounds rounds of five searches, each on fresh instances:
//            find_min_budget for sim-high on mu-tripartite, side 256/1024,
//            and for sim-low on Boolean-matching graphs, pairs 256/1024/4096
// The search sizes are those bench/baseline.sh uses for bench_sim_lb and
// bench_bm_lb; the rounds give the searches a share of the pass large enough
// to time steadily. Pass p draws all its instances from (seed, p, round), so
// no two passes of a run, and no two runs with different seeds, share one.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One protocol run inside a budget search: the sweep's unit "session".
struct TrialSample {
  double seconds = 0;
  std::uint64_t bits = 0;  ///< charged bits of the run
  bool ok = true;          ///< false: returned a triangle the instance lacks
};

struct CellResult {
  std::string name;
  double seconds = 0;          ///< wall time of the cell, oracle excluded
  std::uint64_t instances = 0;  ///< distinct instances the cell processed
  std::string failure;         ///< empty iff the oracle accepted the cell
  // gnp cell: per-call times.
  double generate_s = 0, packing_s = 0, count_s = 0, find_s = 0;
  // search cells.
  std::uint64_t probes = 0;      ///< budgets evaluated by the search
  std::uint64_t cache_hits = 0, cache_lookups = 0;
};

class Sweep {
 public:
  static constexpr std::size_t kSearchRounds = 4;
  static constexpr std::size_t kCells = 1 + 5 * kSearchRounds;

  explicit Sweep(std::uint64_t seed) : seed_(seed) {}

  /// Runs cell `cell` of pass `pass` and checks its outputs; the check is
  /// not part of CellResult::seconds.
  CellResult run_cell(std::size_t pass, std::size_t cell);

  /// Protocol runs recorded since the last call.
  std::vector<TrialSample> take_trials();

 private:
  CellResult gnp_cell(std::uint64_t seed, bool reference_count);
  CellResult mu_cell(std::uint64_t seed, std::uint32_t side);
  CellResult bm_cell(std::uint64_t seed, std::uint32_t pairs);
  void record(const TrialSample& s);

  std::uint64_t seed_;
  std::mutex mu_;
  std::vector<TrialSample> trials_;
};

}  // namespace perfbench
