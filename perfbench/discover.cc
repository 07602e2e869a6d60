// Workload `discover`: durable all-pairs discovery, the paper's big-data
// production path. jobs::ResumeAllPairsSearch runs the prefilter cascade
// over every channel pair of a correlated-cluster dataset, then durable
// TYCOS (LMN) over the survivors at one engine thread per hardware thread.
// This is the only workload that runs the prefilter, the pair-level
// fan-out and checkpointing. Stage 1 passes nearly every pair here, so a
// change that makes it prune (or removes it) shows in wall_s.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "datagen/clusters.h"
#include "harness.h"
#include "jobs/durable_pairwise.h"
#include "search/allpairs.h"
#include "search/pairwise.h"
#include "search/prefilter.h"

namespace perfbench {
namespace {

using tycos::PairwiseEntry;
using tycos::TycosParams;
using tycos::WindowSet;

constexpr int kChannels = 320;
constexpr int kClusters = 16;
constexpr int64_t kLength = 1024;
constexpr int kSetups = 5;
// A discovery run slower than this counts as a missed request in
// goodput_rps.
constexpr double kLatencyLimitS = 30.0;
// A planted pair counts as found only when a window sits within this many
// samples of its planted relative delay.
constexpr int64_t kDelayTolerance = 1;

TycosParams Params(int threads) {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 16;
  p.s_max = 96;
  p.td_max = 8;
  p.delta = 2;
  p.num_threads = threads;
  return p;
}

tycos::PrefilterParams Prefilter() {
  tycos::PrefilterParams p;
  p.window = 128;
  p.hop = 128;
  p.paa_segments = 16;
  p.svd_dims = 3;
  // The generator plants linear relations, for which pruning at T = sigma
  // is lossless; recall is still checked against the planted pairs.
  p.mi_conservativeness = 1.0;
  return p;
}

using PairKey = std::pair<int, int>;

struct Iteration {
  tycos::jobs::AllPairsJobOutcome outcome;
  CounterBlock counters;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Discover {
 public:
  explicit Discover(const Options& opts)
      : opts_(opts), params_(Params(opts.nproc)) {
    jopt_.durable.checkpoint_path = opts.scratch + "/discover.ckpt";
    jopt_.prefilter = Prefilter();
  }

  Report Run();

 private:
  bool Setup(std::vector<double>* setup_s);
  Iteration RunDurable();
  void CheckIteration(const Iteration& it, const char* label);
  void CheckSameAsReference(const Iteration& it, const char* label);
  std::map<PairKey, const PairwiseEntry*> EntriesByPair(
      const Iteration& it) const;
  std::vector<ReplayJob> ReplayJobs(const std::vector<PairKey>& pairs) const;
  // Planted pairs kept by the cascade, and planted pairs whose entry holds
  // a window at the planted delay.
  std::pair<int64_t, int64_t> PlantedKeptAndFound(const Iteration& it) const;
  void RemoveCheckpoint() const;
  void TraceRun(Report* report);

  const Options& opts_;
  const TycosParams params_;
  tycos::jobs::AllPairsJobOptions jopt_;
  tycos::datagen::ClusteredDataset ds_;
  Iteration reference_;
};

bool Discover::Setup(std::vector<double>* setup_s) {
  tycos::datagen::ClusterGenOptions gen;
  gen.num_channels = kChannels;
  gen.num_clusters = kClusters;
  gen.channels_per_cluster = 4;
  gen.length = kLength;
  gen.max_delay = 6;  // relative delays stay inside td_max = 8
  // Population r = 0.86 at alignment. At noise 0.7 (r = 0.67) the search
  // misses a few planted pairs per run, which the gate would reject.
  gen.member_noise = 0.4;
  // Leaders smoother than this (0.9 by default) correlate with each other
  // by chance, and how many cross-cluster pairs then survive swings the
  // run's cost by +-25% from seed to seed.
  gen.leader_ar = 0.7;
  gen.seed = opts_.seed;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    auto made = tycos::datagen::MakeCorrelatedClusters(gen);
    setup_s->push_back(NowSeconds() - t0);
    if (!made.ok()) {
      TheGate().Check(false, "datagen: " + made.status().message());
      return false;
    }
    ds_ = std::move(made.value());
  }
  return true;
}

void Discover::RemoveCheckpoint() const {
  std::remove(jopt_.durable.checkpoint_path.c_str());
  std::remove((jopt_.durable.checkpoint_path + ".survivors").c_str());
}

Iteration Discover::RunDurable() {
  RemoveCheckpoint();
  Iteration it;
  const CounterBlock before = Counters();
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  auto out = tycos::jobs::ResumeAllPairsSearch(
      ds_.channels, params_, tycos::TycosVariant::kLMN, opts_.seed,
      tycos::RunContext::None(), jopt_);
  it.wall_s = NowSeconds() - t0;
  it.cpu_s = CpuSeconds() - cpu0;
  it.counters = Delta(Counters(), before);
  RemoveCheckpoint();
  if (!out.ok()) {
    TheGate().Check(false, "ResumeAllPairsSearch: " + out.status().message());
  } else {
    it.outcome = std::move(out.value());
  }
  return it;
}

std::map<PairKey, const PairwiseEntry*> Discover::EntriesByPair(
    const Iteration& it) const {
  std::map<PairKey, const PairwiseEntry*> by_pair;
  for (const PairwiseEntry& e : it.outcome.durable.result.entries) {
    by_pair[{e.a, e.b}] = &e;
  }
  return by_pair;
}

std::pair<int64_t, int64_t> Discover::PlantedKeptAndFound(
    const Iteration& it) const {
  const auto by_pair = EntriesByPair(it);
  int64_t kept = 0;
  int64_t found = 0;
  for (const auto& p : ds_.pairs) {
    const auto e = by_pair.find({p.a, p.b});
    if (e == by_pair.end()) continue;
    ++kept;
    // b lags a by p.delay, and a window maps x index t to y index
    // t + delay, so the planted window delay is p.delay itself.
    for (const tycos::Window& w : e->second->windows.windows()) {
      if (std::llabs(w.delay - p.delay) <= kDelayTolerance) {
        ++found;
        break;
      }
    }
  }
  return {kept, found};
}

void Discover::CheckIteration(const Iteration& it, const char* label) {
  Gate& gate = TheGate();
  const std::string l = label;
  const auto& r = it.outcome.durable.result;
  const auto& st = it.outcome.durable.stats;
  gate.Check(r.stop_reason == tycos::StopReason::kCompleted && !r.partial,
             l + ": discovery did not complete");
  gate.Check(st.pairs_failed == 0 && st.pairs_refused == 0 &&
                 st.checkpoint_error.ok(),
             l + ": pairs failed, were refused, or lost checkpointing");
  gate.Check(r.entries.size() == it.outcome.survivors.size(),
             l + ": not every survivor has an entry");
  const auto [kept, found] = PlantedKeptAndFound(it);
  const auto planted = static_cast<int64_t>(ds_.pairs.size());
  gate.Check(kept == planted, l + ": a planted pair was pruned");
  gate.Check(found == planted,
             l + ": a planted pair was not found at its planted delay");
}

void Discover::CheckSameAsReference(const Iteration& it, const char* label) {
  Gate& gate = TheGate();
  const std::string l = label;
  gate.Check(it.outcome.survivors == reference_.outcome.survivors,
             l + ": survivor list differs from the first run");
  const auto& a = reference_.outcome.durable.result.entries;
  const auto& b = it.outcome.durable.result.entries;
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].a == b[i].a && a[i].b == b[i].b &&
           a[i].best_score == b[i].best_score &&
           a[i].partial == b[i].partial &&
           a[i].shed_level == b[i].shed_level &&
           SameWindows(a[i].windows, b[i].windows);
  }
  gate.Check(same, l + ": entries differ from the first run");
  const std::string diff = FirstDifference(reference_.counters, it.counters);
  gate.Check(diff.empty(), l + ": counter block differs: " + diff);
}

std::vector<ReplayJob> Discover::ReplayJobs(
    const std::vector<PairKey>& pairs) const {
  std::vector<ReplayJob> jobs;
  for (const auto& [a, b] : pairs) {
    ReplayJob job;
    job.make_pair = [this, a = a, b = b] {
      return tycos::SeriesPair(ds_.channels[static_cast<size_t>(a)],
                               ds_.channels[static_cast<size_t>(b)]);
    };
    job.params = params_;
    job.seed = tycos::PairwiseSeed(opts_.seed, a, b);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Report Discover::Run() {
  Report report;
  report.engine_threads = opts_.nproc;
  std::vector<double> setup_s;
  if (!Setup(&setup_s)) return report;

  if (opts_.trace) {
    TraceRun(&report);
    return report;
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  const double start = NowSeconds();
  while (walls.size() < 2 || NowSeconds() - start < opts_.seconds) {
    Iteration it = RunDurable();
    const bool last =
        walls.size() >= 1 && NowSeconds() - start >= opts_.seconds;
    if (opts_.corrupt && last && !it.outcome.durable.result.entries.empty()) {
      CorruptForSelfTest(&it.outcome.durable.result.entries[0].windows);
    }
    CheckIteration(it, "discover run");
    const auto& st = it.outcome.durable.stats;
    report.attempted += st.pairs_total + it.outcome.pairs_pruned;
    report.failed += st.pairs_failed + st.pairs_refused;
    for (const PairwiseEntry& e : it.outcome.durable.result.entries) {
      if (e.partial) ++report.failed;
    }
    if (walls.empty()) {
      reference_ = std::move(it);
      walls.push_back(reference_.wall_s);
      cpus.push_back(reference_.cpu_s);
    } else {
      CheckSameAsReference(it, "discover rerun");
      walls.push_back(it.wall_s);
      cpus.push_back(it.cpu_s);
    }
    if (!TheGate().ok()) break;
  }

  // Independent reference for a sample of pairs: a plain single-threaded
  // Tycos run per pair must reproduce the durable run's windows.
  const auto by_pair = EntriesByPair(reference_);
  std::vector<PairKey> sample;
  if (!ds_.pairs.empty()) {
    const auto& p = ds_.pairs[opts_.seed % ds_.pairs.size()];
    sample.push_back({p.a, p.b});
  }
  for (const auto& [key, entry] : by_pair) {
    if (entry->windows.empty()) {
      sample.push_back(key);
      break;
    }
  }
  const Replay spot = RunReplay(ReplayJobs(sample), 1);
  for (size_t i = 0; i < sample.size(); ++i) {
    const auto e = by_pair.find(sample[i]);
    TheGate().Check(e != by_pair.end() && spot.outputs[i].ok &&
                        SameWindows(spot.outputs[i].windows,
                                    e->second->windows),
                    "discover: a direct Tycos run disagrees with the "
                    "durable result for pair (" +
                        std::to_string(sample[i].first) + ", " +
                        std::to_string(sample[i].second) + ")");
  }

  const int64_t found = PlantedKeptAndFound(reference_).second;
  AddSearchEndToEnd(
      walls, cpus, setup_s,
      static_cast<double>(reference_.outcome.durable.stats.pairs_total +
                          reference_.outcome.pairs_pruned),
      Ratio(static_cast<double>(found), static_cast<double>(ds_.pairs.size())),
      kLatencyLimitS, &report.metrics);
  return report;
}

// Per-layer pass. The durable run is repeated untraced (its counter block
// must repeat exactly), then the same discovery is driven layer by layer
// from here: RunPrefilter, then every survivor through a timed Tycos
// replay, then a plain SearchPairList over the same survivors. All three
// must reproduce the durable run's survivors and entries bit for bit.
void Discover::TraceRun(Report* report) {
  Gate& gate = TheGate();
  reference_ = RunDurable();
  CheckIteration(reference_, "discover untraced run");
  Iteration again = RunDurable();
  CheckIteration(again, "discover untraced rerun");
  CheckSameAsReference(again, "discover untraced rerun");
  const double untraced_wall = Median({reference_.wall_s, again.wall_s});
  report->attempted = 2 * (reference_.outcome.durable.stats.pairs_total +
                           reference_.outcome.pairs_pruned);
  report->failed = reference_.outcome.durable.stats.pairs_failed +
                   again.outcome.durable.stats.pairs_failed;

  // Traced pass: prefilter, then the survivors through the timed replay.
  const tycos::PrefilterParams resolved = tycos::ResolveAllPairsPrefilter(
      jopt_.prefilter, params_, kLength);
  const double threshold =
      tycos::ResolvePearsonThreshold(resolved, params_.sigma);
  const CounterBlock before = Counters();
  const double pf0 = NowSeconds();
  auto pre = tycos::RunPrefilter(ds_.channels, resolved, threshold,
                                 tycos::RunContext::None());
  const double prefilter_wall = NowSeconds() - pf0;
  if (!pre.ok() || pre.value().stop.has_value()) {
    gate.Check(false, "discover: RunPrefilter did not complete");
    return;
  }
  const std::vector<PairKey> survivors = pre.value().PairList();
  gate.Check(survivors == reference_.outcome.survivors,
             "discover: traced prefilter survivors differ from the durable "
             "run");
  const Replay replay = RunReplay(ReplayJobs(survivors), opts_.nproc);
  const CounterBlock traced = Delta(Counters(), before);
  report->attempted += static_cast<int64_t>(survivors.size());

  const auto by_pair = EntriesByPair(reference_);
  for (size_t i = 0; i < survivors.size(); ++i) {
    const auto e = by_pair.find(survivors[i]);
    WindowSet windows = replay.outputs[i].windows;
    if (opts_.corrupt && i == 0) CorruptForSelfTest(&windows);
    const bool same = e != by_pair.end() && replay.outputs[i].ok &&
                      !replay.outputs[i].partial &&
                      SameWindows(windows, e->second->windows);
    gate.Check(same, "discover: traced replay differs for pair (" +
                         std::to_string(survivors[i].first) + ", " +
                         std::to_string(survivors[i].second) + ")");
    if (!replay.outputs[i].ok) ++report->failed;
  }
  const std::string diff = FirstDifference(
      EngineCounters(traced), EngineCounters(reference_.counters));
  gate.Check(diff.empty(),
             "discover: traced engine counters differ from the durable run: " +
                 diff);

  // Plain search over the same survivors: the durable layer's overhead.
  const double spl0 = NowSeconds();
  auto plain = tycos::SearchPairList(ds_.channels, survivors, params_,
                                     tycos::TycosVariant::kLMN, opts_.seed,
                                     tycos::RunContext::None());
  const double plain_wall = NowSeconds() - spl0;
  gate.Check(plain.ok() && plain.value().entries.size() ==
                               reference_.outcome.durable.result.entries.size(),
             "discover: SearchPairList over the survivors failed");
  if (plain.ok()) {
    for (const PairwiseEntry& e : plain.value().entries) {
      const auto d = by_pair.find({e.a, e.b});
      gate.Check(d != by_pair.end() &&
                     SameWindows(e.windows, d->second->windows),
                 "discover: SearchPairList differs from the durable run");
    }
  }

  const tycos::PrefilterStats& ps = pre.value().stats;
  const int64_t kept = PlantedKeptAndFound(reference_).first;
  Metrics& m = report->metrics;
  m["prefilter.stage1_s"] = ps.stage1_seconds;
  m["prefilter.stage2_s"] = ps.stage2_seconds;
  m["prefilter.stage1_pass_ratio"] =
      Ratio(static_cast<double>(ps.stage1_candidates),
            static_cast<double>(ps.pairs_total));
  m["prefilter.stage2_pass_ratio"] =
      Ratio(static_cast<double>(ps.stage2_survivors),
            static_cast<double>(ps.stage1_candidates));
  m["prefilter.survivors"] = static_cast<double>(ps.stage2_survivors);
  m["prefilter.planted_kept"] = static_cast<double>(kept);
  AddSearchLayerMetrics(replay, EngineCounters(traced), &m);
  const double busy = ReplayBusySeconds(replay);
  m["sched.efficiency"] = Ratio(busy, opts_.nproc * untraced_wall);
  m["jobs.overhead_s"] = untraced_wall - prefilter_wall - plain_wall;
  m["jobs.checkpoint_records"] =
      static_cast<double>(Get(reference_.counters, "jobs.checkpoint_records"));
  m["jobs.checkpoint_bytes"] =
      static_cast<double>(Get(reference_.counters, "jobs.checkpoint_bytes"));
  m["jobs.retries"] =
      static_cast<double>(Get(reference_.counters, "jobs.retries"));
  const double traced_wall = prefilter_wall + replay.wall_s;
  m["trace.overhead_share"] = Ratio(traced_wall, untraced_wall) - 1.0;
  const double traced_busy = prefilter_wall + busy;
  const double accounted =
      ps.stage1_seconds + ps.stage2_seconds + ReplayAccountedSeconds(replay);
  m["trace.unaccounted_share"] = Ratio(traced_busy - accounted, traced_busy);
}

}  // namespace

Report RunDiscover(const Options& opts) { return Discover(opts).Run(); }

}  // namespace perfbench
