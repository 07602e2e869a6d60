#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/run_context.h"
#include "core/window_similarity.h"
#include "obs/metrics.h"

namespace perfbench {

using tycos::Window;
using tycos::WindowSet;

void Gate::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

Gate& TheGate() {
  static Gate gate;
  return gate;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launcher's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

CounterBlock Counters() {
  CounterBlock block;
  for (const tycos::obs::CounterSnapshot& c :
       tycos::obs::Snapshot().counters) {
    block[c.name] = c.value;
  }
  return block;
}

CounterBlock Delta(const CounterBlock& after, const CounterBlock& before) {
  CounterBlock d;
  for (const auto& [name, value] : after) d[name] = value - Get(before, name);
  return d;
}

CounterBlock Only(const CounterBlock& block,
                  const std::vector<std::string>& names) {
  CounterBlock out;
  for (const std::string& n : names) out[n] = Get(block, n);
  return out;
}

CounterBlock EngineCounters(const CounterBlock& block) {
  CounterBlock out;
  for (const auto& [name, value] : block) {
    for (const char* prefix :
         {"tycos.", "mi.", "incremental.", "knn.", "noise."}) {
      if (name.rfind(prefix, 0) == 0) out[name] = value;
    }
  }
  return out;
}

std::string FirstDifference(const CounterBlock& a, const CounterBlock& b) {
  CounterBlock names = a;
  names.insert(b.begin(), b.end());
  for (const auto& [name, unused] : names) {
    if (Get(a, name) != Get(b, name)) {
      return name + " " + std::to_string(Get(a, name)) + " vs " +
             std::to_string(Get(b, name));
    }
  }
  return "";
}

int64_t Get(const CounterBlock& block, const std::string& name) {
  const auto it = block.find(name);
  return it == block.end() ? 0 : it->second;
}

bool SameWindows(const WindowSet& a, const WindowSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Window& u = a.windows()[i];
    const Window& v = b.windows()[i];
    if (u.start != v.start || u.end != v.end || u.delay != v.delay ||
        u.mi != v.mi) {
      return false;
    }
  }
  return true;
}

void CorruptForSelfTest(WindowSet* windows) {
  std::vector<Window> ws = windows->windows();
  if (ws.empty()) {
    ws.emplace_back(0, 31, 0, 1.0);
  } else {
    ws.front().delay += 1;
  }
  WindowSet damaged;
  for (const Window& w : ws) damaged.Insert(w);
  *windows = std::move(damaged);
}

namespace {

constexpr size_t kMaxTrackedM = 4096;

// Times every Score() call on the evaluator stack it wraps and records the
// window size the call saw. One instance per climb; the counters it writes
// belong to the replay worker running that climb.
class TimingEvaluator final : public tycos::WindowEvaluator {
 public:
  TimingEvaluator(std::unique_ptr<tycos::WindowEvaluator> inner,
                  double* score_s, int64_t* calls,
                  std::vector<int64_t>* m_counts)
      : inner_(std::move(inner)),
        score_s_(score_s),
        calls_(calls),
        m_counts_(m_counts) {}

  double Score(const Window& w) override {
    const auto t0 = std::chrono::steady_clock::now();
    const double s = inner_->Score(w);
    *score_s_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    ++*calls_;
    const int64_t m = std::max<int64_t>(w.size(), 0);
    ++(*m_counts_)[std::min(static_cast<size_t>(m), kMaxTrackedM)];
    return s;
  }
  int64_t evaluations() const override { return inner_->evaluations(); }
  int64_t degenerate_windows() const override {
    return inner_->degenerate_windows();
  }
  void FlushObsCounters() override { inner_->FlushObsCounters(); }

 private:
  std::unique_ptr<tycos::WindowEvaluator> inner_;
  double* score_s_;
  int64_t* calls_;
  std::vector<int64_t>* m_counts_;
};

}  // namespace

Replay RunReplay(const std::vector<ReplayJob>& jobs, int threads) {
  Replay replay;
  replay.outputs.resize(jobs.size());
  replay.threads =
      std::max(1, std::min<int>(threads, static_cast<int>(jobs.size())));
  std::vector<std::vector<int64_t>> m_counts(
      static_cast<size_t>(replay.threads),
      std::vector<int64_t>(kMaxTrackedM + 1, 0));
  std::vector<int64_t> calls(static_cast<size_t>(replay.threads), 0);
  std::atomic<size_t> next{0};

  const auto worker = [&](size_t t) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      const ReplayJob& job = jobs[i];
      ReplayOutput& out = replay.outputs[i];
      const double t0 = NowSeconds();
      const tycos::SeriesPair pair = job.make_pair();
      tycos::TycosParams params = job.params;
      params.num_threads = 1;
      auto engine = tycos::Tycos::Create(pair, params, job.variant, job.seed);
      if (engine.ok()) {
        double score_s = 0.0;
        engine.value()->WrapEvaluatorForTest(
            [&](std::unique_ptr<tycos::WindowEvaluator> inner) {
              return std::make_unique<TimingEvaluator>(
                  std::move(inner), &score_s, &calls[t], &m_counts[t]);
            });
        const double r0 = NowSeconds();
        auto outcome = engine.value()->Run(tycos::RunContext::None());
        out.run_s = NowSeconds() - r0;
        out.score_s = score_s;
        if (outcome.ok()) {
          out.ok = true;
          out.partial = outcome.value().partial;
          out.windows = std::move(outcome.value().windows);
        }
      }
      out.busy_s = NowSeconds() - t0;
    }
  };

  const double t0 = NowSeconds();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < static_cast<size_t>(replay.threads); ++t) {
    pool.emplace_back(worker, t);
  }
  for (std::thread& th : pool) th.join();
  replay.wall_s = NowSeconds() - t0;

  replay.window_m_counts.assign(kMaxTrackedM + 1, 0);
  for (size_t t = 0; t < m_counts.size(); ++t) {
    replay.score_calls += calls[t];
    for (size_t m = 0; m <= kMaxTrackedM; ++m) {
      replay.window_m_counts[m] += m_counts[t][m];
    }
  }
  return replay;
}

namespace {

// Smallest m whose cumulative share of Score() calls reaches q.
double CountQuantile(const std::vector<int64_t>& counts, double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  int64_t seen = 0;
  for (size_t m = 0; m < counts.size(); ++m) {
    seen += counts[m];
    if (static_cast<double>(seen) >= q * static_cast<double>(total)) {
      return static_cast<double>(m);
    }
  }
  return static_cast<double>(counts.size() - 1);
}

}  // namespace

double ReplayBusySeconds(const Replay& replay) {
  double s = 0.0;
  for (const ReplayOutput& o : replay.outputs) s += o.busy_s;
  return s;
}

double ReplayAccountedSeconds(const Replay& replay) {
  double s = 0.0;
  for (const ReplayOutput& o : replay.outputs) s += o.run_s;
  return s;
}

void AddSearchLayerMetrics(const Replay& replay, const CounterBlock& engine,
                           Metrics* m) {
  std::vector<double> pair_s;
  double self_s = 0.0;
  double score_s = 0.0;
  for (const ReplayOutput& o : replay.outputs) {
    pair_s.push_back(o.busy_s);
    self_s += o.run_s - o.score_s;
    score_s += o.score_s;
  }
  Metrics& out = *m;
  out["search.pair_s_p50"] = Quantile(pair_s, 0.5);
  out["search.pair_s_p90"] = Quantile(pair_s, 0.9);
  out["search.pair_s_max"] = Quantile(pair_s, 1.0);
  out["search.self_s"] = self_s;
  for (const char* name :
       {"tycos.climbs", "tycos.accepted_moves", "tycos.rejected_moves",
        "tycos.noise_blocked", "noise.initial_scans",
        "noise.subsequent_tests", "mi.evaluations", "mi.cache_hits",
        "incremental.full_rebuilds", "incremental.incremental_moves",
        "incremental.knn_recomputes", "knn.brute.queries",
        "knn.kd_tree.queries", "knn.grid.queries"}) {
    out[name] = static_cast<double>(Get(engine, name));
  }
  const double evaluations = out["mi.evaluations"];
  out["mi.score_s"] = score_s;
  out["mi.score_calls"] = static_cast<double>(replay.score_calls);
  out["mi.eval_us"] = Ratio(score_s * 1e6, evaluations);
  out["mi.cache_hit_ratio"] = Ratio(out["mi.cache_hits"],
                                    static_cast<double>(replay.score_calls));
  out["mi.window_m_p50"] = CountQuantile(replay.window_m_counts, 0.5);
  out["mi.window_m_p99"] = CountQuantile(replay.window_m_counts, 0.99);
  out["incremental.reuse_ratio"] =
      Ratio(out["incremental.incremental_moves"],
            out["incremental.incremental_moves"] +
                out["incremental.full_rebuilds"]);
}

void AddSearchEndToEnd(const std::vector<double>& walls,
                       const std::vector<double>& cpus,
                       const std::vector<double>& setup_s, double pairs,
                       double recall, double latency_limit_s, Metrics* m) {
  const double wall = Median(walls);
  double timed = 0.0;
  int64_t within = 0;
  for (double w : walls) {
    timed += w;
    if (w <= latency_limit_s) ++within;
  }
  Metrics& out = *m;
  out["wall_s"] = wall;
  out["pairs_per_s"] = Ratio(pairs, wall);
  out["cpu_s"] = Median(cpus);
  out["setup_s"] = Median(setup_s);
  out["planted_recall"] = recall;
  out["latency_p50_ms"] = wall * 1e3;
  out["latency_p95_ms"] = Quantile(walls, 0.95) * 1e3;
  out["goodput_rps"] = Ratio(static_cast<double>(within), timed);
}

bool Detects(const std::vector<Window>& reported, const Window& truth,
             int64_t delay_tolerance) {
  for (const Window& w : reported) {
    if (tycos::IndexJaccard(w, truth) >= 0.25 &&
        std::llabs(w.delay - truth.delay) <= delay_tolerance) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
