// Workload `wide`: PairwiseSearch with multi-restart climbs over a few long
// channels carrying planted non-linear relations, at s_max = 1024. Its
// windows reach well past m = 256, so the k-d tree, incremental-KSG
// rebuilds and the pair x climb scheduler carry the load; `discover` and
// `serve` never reach that code. A kNN-index or scheduler change shows
// here first.

#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "datagen/relations.h"
#include "harness.h"
#include "search/pairwise.h"

namespace perfbench {
namespace {

using tycos::PairwiseEntry;
using tycos::TycosParams;
using tycos::datagen::RelationType;

// One run searches kGroups independent channel groups, each one
// PairwiseSearch call over kRelationsPerGroup planted pairs (channels 2i,
// 2i + 1) plus the background pairs between them. Climb cost on one
// relation varies a lot with the data, so the run spreads its time over
// many relations rather than a few.
constexpr int kGroups = 12;
constexpr int kRelationsPerGroup = 4;
constexpr int64_t kSegment = 500;
// s_max may not exceed the series length: each relation sits in 1100
// samples, the rest background.
constexpr int64_t kGap = 300;
constexpr int64_t kLength = kSegment + 2 * kGap;
constexpr int kSetups = 5;
constexpr int64_t kDelayTolerance = 16;
// A run slower than this counts as a missed request in goodput_rps.
constexpr double kLatencyLimitS = 60.0;

// Non-linear relations, cycled over the planted pairs; the seed draws the
// samples and the delays.
constexpr RelationType kRelations[] = {
    RelationType::kQuadratic, RelationType::kSine, RelationType::kCross,
    RelationType::kQuartic, RelationType::kSquareRoot,
};

TycosParams Params(int threads) {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 32;
  p.s_max = 1024;
  p.td_max = 32;
  p.delta = 8;
  p.num_restarts = 4;
  p.num_threads = threads;
  return p;
}

struct Group {
  std::vector<tycos::TimeSeries> channels;
  std::vector<tycos::Window> planted;  // relation i: channels (2i, 2i + 1)
};

std::vector<Group> Generate(uint64_t seed) {
  std::vector<Group> groups;
  tycos::Rng rng(seed);
  int relation = 0;
  for (int g = 0; g < kGroups; ++g) {
    Group group;
    for (int i = 0; i < kRelationsPerGroup; ++i, ++relation) {
      const tycos::datagen::SegmentSpec segment{
          kRelations[relation % std::size(kRelations)], kSegment,
          rng.UniformInt(4, 28)};
      const auto ds = tycos::datagen::ComposeDataset(
          {segment}, kGap, seed * 977 + static_cast<uint64_t>(relation));
      // Cut to kLength: only background follows the segment, since every
      // delay is shorter than the gap.
      for (const tycos::TimeSeries* s : {&ds.pair.x(), &ds.pair.y()}) {
        std::vector<double> v = s->values();
        v.resize(static_cast<size_t>(kLength));
        group.channels.emplace_back(std::move(v));
      }
      group.planted.push_back(ds.planted.front().AsWindow());
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

struct Iteration {
  std::vector<tycos::PairwiseResult> results;  // one per group
  CounterBlock counters;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// A pair of one group, as (group, a, b).
using GroupPair = std::tuple<int, int, int>;

class Wide {
 public:
  explicit Wide(const Options& opts)
      : opts_(opts), params_(Params(opts.nproc)) {}

  Report Run();

 private:
  uint64_t SearchSeed(int group) const {
    return opts_.seed + static_cast<uint64_t>(group);
  }
  Iteration RunSearch();
  void Check(const Iteration& it, const std::string& label);
  const PairwiseEntry* Find(const GroupPair& p) const;
  std::vector<ReplayJob> ReplayJobs(const std::vector<GroupPair>& pairs) const;
  void CheckReplay(const std::vector<GroupPair>& pairs, const Replay& replay,
                   const std::string& label, bool corrupt);
  // Planted relations detected, over all planted relations.
  double Recall() const;
  void TraceRun(Report* report);

  const Options& opts_;
  const TycosParams params_;
  std::vector<Group> groups_;
  Iteration reference_;
};

Iteration Wide::RunSearch() {
  Iteration it;
  const CounterBlock before = Counters();
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  for (int g = 0; g < kGroups; ++g) {
    auto out = tycos::PairwiseSearch(groups_[static_cast<size_t>(g)].channels,
                                     params_, tycos::TycosVariant::kLMN,
                                     SearchSeed(g), tycos::RunContext::None());
    if (!out.ok()) {
      TheGate().Check(false, "PairwiseSearch: " + out.status().message());
      it.results.emplace_back();
    } else {
      it.results.push_back(std::move(out.value()));
    }
  }
  it.wall_s = NowSeconds() - t0;
  it.cpu_s = CpuSeconds() - cpu0;
  it.counters = Delta(Counters(), before);
  return it;
}

// Completion, and bit-identity (entries and counter block) with the first
// run of this process.
void Wide::Check(const Iteration& it, const std::string& label) {
  Gate& gate = TheGate();
  constexpr int64_t kChannels = 2 * kRelationsPerGroup;
  for (const tycos::PairwiseResult& r : it.results) {
    gate.Check(r.stop_reason == tycos::StopReason::kCompleted && !r.partial &&
                   r.pairs_searched == kChannels * (kChannels - 1) / 2,
               label + ": search did not complete every pair");
  }
  if (&it == &reference_) return;
  bool same = it.results.size() == reference_.results.size();
  for (size_t g = 0; same && g < it.results.size(); ++g) {
    const auto& a = reference_.results[g].entries;
    const auto& b = it.results[g].entries;
    same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].a == b[i].a && a[i].b == b[i].b &&
             a[i].best_score == b[i].best_score &&
             a[i].partial == b[i].partial &&
             SameWindows(a[i].windows, b[i].windows);
    }
  }
  gate.Check(same, label + ": windows differ from the first run");
  const std::string diff = FirstDifference(reference_.counters, it.counters);
  gate.Check(diff.empty(), label + ": counter block differs: " + diff);
}

const PairwiseEntry* Wide::Find(const GroupPair& p) const {
  const auto& [g, a, b] = p;
  if (static_cast<size_t>(g) >= reference_.results.size()) return nullptr;
  for (const PairwiseEntry& e :
       reference_.results[static_cast<size_t>(g)].entries) {
    if (e.a == a && e.b == b) return &e;
  }
  return nullptr;
}

double Wide::Recall() const {
  int64_t total = 0;
  int64_t found = 0;
  for (int g = 0; g < kGroups; ++g) {
    const auto& planted = groups_[static_cast<size_t>(g)].planted;
    for (int i = 0; i < static_cast<int>(planted.size()); ++i) {
      ++total;
      const PairwiseEntry* e = Find({g, 2 * i, 2 * i + 1});
      if (e != nullptr && Detects(e->windows.windows(),
                                  planted[static_cast<size_t>(i)],
                                  kDelayTolerance)) {
        ++found;
      }
    }
  }
  return Ratio(static_cast<double>(found), static_cast<double>(total));
}

std::vector<ReplayJob> Wide::ReplayJobs(
    const std::vector<GroupPair>& pairs) const {
  std::vector<ReplayJob> jobs;
  for (const auto& [g, a, b] : pairs) {
    ReplayJob job;
    const auto& channels = groups_[static_cast<size_t>(g)].channels;
    job.make_pair = [&channels, a = a, b = b] {
      return tycos::SeriesPair(channels[static_cast<size_t>(a)],
                               channels[static_cast<size_t>(b)]);
    };
    job.params = params_;
    job.seed = tycos::PairwiseSeed(SearchSeed(g), a, b);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void Wide::CheckReplay(const std::vector<GroupPair>& pairs,
                       const Replay& replay, const std::string& label,
                       bool corrupt) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PairwiseEntry* e = Find(pairs[i]);
    tycos::WindowSet windows = replay.outputs[i].windows;
    if (corrupt && i == 0) CorruptForSelfTest(&windows);
    const auto& [g, a, b] = pairs[i];
    TheGate().Check(e != nullptr && replay.outputs[i].ok &&
                        !replay.outputs[i].partial &&
                        SameWindows(windows, e->windows),
                    "wide: " + label + " disagrees with PairwiseSearch for "
                    "group " + std::to_string(g) + " pair (" +
                        std::to_string(a) + ", " + std::to_string(b) + ")");
  }
}

Report Wide::Run() {
  Report report;
  report.engine_threads = opts_.nproc;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    groups_ = Generate(opts_.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  if (opts_.trace) {
    TraceRun(&report);
    return report;
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  const double start = NowSeconds();
  while (walls.size() < 2 || NowSeconds() - start < opts_.seconds) {
    Iteration it = RunSearch();
    const bool last = !walls.empty() && NowSeconds() - start >= opts_.seconds;
    if (opts_.corrupt && last && !it.results[0].entries.empty()) {
      CorruptForSelfTest(&it.results[0].entries[0].windows);
    }
    for (const tycos::PairwiseResult& r : it.results) {
      report.attempted += r.pairs_searched + r.pairs_skipped;
      report.failed += r.pairs_skipped;
      for (const PairwiseEntry& e : r.entries) {
        if (e.partial) ++report.failed;
      }
    }
    walls.push_back(it.wall_s);
    cpus.push_back(it.cpu_s);
    if (walls.size() == 1) {
      reference_ = std::move(it);
      Check(reference_, "wide run");
    } else {
      Check(it, "wide rerun");
    }
    if (!TheGate().ok()) break;
  }

  // Independent reference for two pairs (one planted, one background): a
  // plain single-threaded Tycos run must reproduce the parallel result.
  const int g = static_cast<int>(opts_.seed % static_cast<uint64_t>(kGroups));
  const std::vector<GroupPair> sample = {{g, 0, 1}, {g, 0, 3}};
  CheckReplay(sample, RunReplay(ReplayJobs(sample), 1), "a direct Tycos run",
              false);

  int64_t pairs = 0;
  for (const tycos::PairwiseResult& r : reference_.results) {
    pairs += r.pairs_searched;
  }
  AddSearchEndToEnd(walls, cpus, setup_s, static_cast<double>(pairs),
                    Recall(), kLatencyLimitS, &report.metrics);
  return report;
}

// Per-layer pass: the search twice untraced (the second must repeat the
// first's windows and counters exactly), then every pair through the timed
// replay at one pair per thread, which must reproduce the windows and the
// engine counters of the untraced run.
void Wide::TraceRun(Report* report) {
  reference_ = RunSearch();
  Check(reference_, "wide untraced run");
  const Iteration again = RunSearch();
  Check(again, "wide untraced rerun");
  const double untraced_wall = Median({reference_.wall_s, again.wall_s});

  std::vector<GroupPair> pairs;
  for (int g = 0; g < kGroups; ++g) {
    const int n = static_cast<int>(
        groups_[static_cast<size_t>(g)].channels.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) pairs.push_back({g, a, b});
    }
  }
  const CounterBlock before = Counters();
  const Replay replay = RunReplay(ReplayJobs(pairs), opts_.nproc);
  const CounterBlock traced = Delta(Counters(), before);
  report->attempted = 3 * static_cast<int64_t>(pairs.size());
  for (const ReplayOutput& o : replay.outputs) {
    if (!o.ok) ++report->failed;
  }
  CheckReplay(pairs, replay, "the traced replay", opts_.corrupt);
  const std::string diff = FirstDifference(
      EngineCounters(traced), EngineCounters(reference_.counters));
  TheGate().Check(diff.empty(),
                  "wide: traced engine counters differ from PairwiseSearch: " +
                      diff);

  Metrics& m = report->metrics;
  AddSearchLayerMetrics(replay, EngineCounters(traced), &m);
  const double busy = ReplayBusySeconds(replay);
  m["sched.efficiency"] = Ratio(busy, opts_.nproc * untraced_wall);
  m["trace.overhead_share"] = Ratio(replay.wall_s, untraced_wall) - 1.0;
  m["trace.unaccounted_share"] =
      Ratio(busy - ReplayAccountedSeconds(replay), busy);
}

}  // namespace

Report RunWide(const Options& opts) { return Wide(opts).Run(); }

}  // namespace perfbench
