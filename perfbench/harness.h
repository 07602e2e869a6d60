// Shared pieces of the repository benchmark: options, the result report,
// the correctness gate, process measurements, registry counter blocks, and
// the traced replay that times TYCOS layers from outside the library.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/time_series.h"
#include "core/window_set.h"
#include "search/evaluator.h"
#include "search/params.h"
#include "search/tycos.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Self-test hook: damage one result just before the correctness gate
  // sees it, so the gate's firing can be demonstrated (run.py --selftest).
  bool corrupt = false;
  // Directory for files a workload writes (checkpoints); inside the
  // checkout, created by run.py.
  std::string scratch = ".";
  std::string commit = "unknown";
  int nproc = 1;
  // serve only: open-loop arrivals per second, 0 for the workload's own
  // rate. For measuring where queueing sets in; not a benchmark setting.
  double rate = 0.0;
};

// Metric name -> value. BENCHMARK.json is the only list of names and
// units; run.py checks the names and attaches the units.
using Metrics = std::map<std::string, double>;

struct Report {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Threads the workload gave the engine, and load-generator threads.
  int engine_threads = 0;
  int loadgen_threads = 0;
};

// The correctness gate: collects failed checks; main() prints them and
// exits nonzero when any fired.
class Gate {
 public:
  void Check(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

Gate& TheGate();

// --- Measurement helpers ---

double NowSeconds();  // steady clock
double CpuSeconds();  // user + sys of this process
double PeakRssMb();   // peak resident set of this process
double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
// a / b, or 0 when b is 0.
double Ratio(double a, double b);

// Registry counters by name (obs::Snapshot()).
using CounterBlock = std::map<std::string, int64_t>;
CounterBlock Counters();
CounterBlock Delta(const CounterBlock& after, const CounterBlock& before);
// Restriction of a block to the counters named in `names`.
CounterBlock Only(const CounterBlock& block,
                  const std::vector<std::string>& names);
// The counters of the search engine itself (tycos.*, mi.*, incremental.*,
// knn.*, noise.*): identical for the same set of pair searches, whichever
// code path ran them.
CounterBlock EngineCounters(const CounterBlock& block);
// First differing counter, or "" when the blocks are identical.
std::string FirstDifference(const CounterBlock& a, const CounterBlock& b);
int64_t Get(const CounterBlock& block, const std::string& name);

// --- Result comparison ---

bool SameWindows(const tycos::WindowSet& a, const tycos::WindowSet& b);
// Damages a window set for the self-test (shifts or plants a window).
void CorruptForSelfTest(tycos::WindowSet* windows);

// --- Traced replay ---
//
// Re-runs pair searches the way SearchPair does (Tycos::Create
// with the same params and seed, then Run), with a timing evaluator spliced
// on top of every evaluator stack through Tycos::WrapEvaluatorForTest. The
// results must be bit-identical to the library's own run; the timings give
// the search and mi layers.

struct ReplayJob {
  std::function<tycos::SeriesPair()> make_pair;
  tycos::TycosParams params;  // num_threads is forced to 1
  tycos::TycosVariant variant = tycos::TycosVariant::kLMN;
  uint64_t seed = 0;
};

struct ReplayOutput {
  tycos::WindowSet windows;
  bool ok = false;
  bool partial = false;
  double busy_s = 0.0;   // pair construction + Create + Run
  double run_s = 0.0;    // inside Tycos::Run
  double score_s = 0.0;  // inside evaluator Score, summed over climbs
};

struct Replay {
  std::vector<ReplayOutput> outputs;  // one per job, in job order
  double wall_s = 0.0;
  int threads = 1;
  int64_t score_calls = 0;
  // Score() calls by window size m (index m, capped at the last slot).
  std::vector<int64_t> window_m_counts;
};

// Runs `jobs` over `threads` workers, claiming jobs in index order.
Replay RunReplay(const std::vector<ReplayJob>& jobs, int threads);

// Fills the search.* / mi.* per-layer metrics from a replay plus the
// registry counters the replay moved.
void AddSearchLayerMetrics(const Replay& replay, const CounterBlock& engine,
                           Metrics* m);
// Sum over the replay's jobs of busy seconds and of seconds attributed to
// a named layer (search.self_s + mi.score_s).
double ReplayBusySeconds(const Replay& replay);
double ReplayAccountedSeconds(const Replay& replay);

// End-to-end metrics of a search workload (discover, wide) from its timed
// runs. One whole run is the "request" of latency_* and goodput_rps: a run
// slower than `latency_limit_s` misses goodput.
void AddSearchEndToEnd(const std::vector<double>& walls,
                       const std::vector<double>& cpus,
                       const std::vector<double>& setup_s, double pairs,
                       double recall, double latency_limit_s, Metrics* m);

// True when any window overlaps `truth` (index Jaccard >= 0.25) at a delay
// within `delay_tolerance` samples of the planted one.
bool Detects(const std::vector<tycos::Window>& reported,
             const tycos::Window& truth, int64_t delay_tolerance);

// --- Workloads ---

Report RunDiscover(const Options& opts);
Report RunWide(const Options& opts);
Report RunServe(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
