#include "search/prefilter.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/pairwise.h"

namespace tycos {

namespace {

// Absolute guard subtracted from the threshold before a pair is compared
// against it: the window moments come from one-pass sums, so a window
// whose exact |r| sits on T may round a hair below it.
constexpr double kPearsonGuard = 1e-6;

// Mean and standard deviation of one length-n window, summed in window
// order: every query and every aligned window reads its moments from a
// table of these, computed once per channel and probe start.
struct WindowMoments {
  double mean = 0.0;
  double std = 0.0;
};

WindowMoments MomentsAt(const double* w, int64_t n) {
  const double dn = static_cast<double>(n);
  double sum = 0.0;
  double sq = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    sum += w[j];
    sq += w[j] * w[j];
  }
  WindowMoments m;
  m.mean = sum / dn;
  m.std = std::sqrt(std::max(0.0, sq / dn - m.mean * m.mean));
  return m;
}

}  // namespace

Status PrefilterParams::Validate(int64_t series_length) const {
  if (window < 0) {
    return Status::InvalidArgument("prefilter window must be >= 0 (0 = auto)");
  }
  if (window > series_length) {
    return Status::InvalidArgument(
        "prefilter window " + std::to_string(window) +
        " exceeds the series length " + std::to_string(series_length));
  }
  if (hop < 0) {
    return Status::InvalidArgument("prefilter hop must be >= 0 (0 = auto)");
  }
  if (td_max < 0) {
    return Status::InvalidArgument(
        "prefilter td_max must be >= 0 (AllPairsSearch derives it from "
        "TycosParams.td_max; RunPrefilter needs an explicit value)");
  }
  if (pearson_threshold < 0.0 || pearson_threshold > 1.0) {
    return Status::InvalidArgument(
        "prefilter pearson_threshold must be in [0, 1] (0 = derive from "
        "sigma)");
  }
  if (!(mi_conservativeness > 0.0) || mi_conservativeness > 1.0) {
    return Status::InvalidArgument(
        "prefilter mi_conservativeness must be in (0, 1]");
  }
  return Status::Ok();
}

double ResolvePearsonThreshold(const PrefilterParams& params, double sigma) {
  double t = params.pearson_threshold > 0.0
                 ? params.pearson_threshold
                 : params.mi_conservativeness * sigma;
  if (t < 1e-6) t = 1e-6;
  if (t > 1.0) t = 1.0;
  return t;
}

std::vector<std::pair<int, int>> PrefilterOutcome::PairList() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(survivors.size());
  for (const PrefilterSurvivor& s : survivors) out.emplace_back(s.a, s.b);
  return out;
}

Result<PrefilterOutcome> RunPrefilter(const std::vector<TimeSeries>& channels,
                                      const PrefilterParams& params,
                                      double threshold,
                                      const RunContext& ctx) {
  TYCOS_SPAN("prefilter");
  Status st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  const int64_t series_length = channels[0].size();
  st = params.Validate(series_length);
  if (!st.ok()) return st;
  if (!(threshold > 0.0) || threshold > 1.0) {
    return Status::InvalidArgument(
        "prefilter threshold must be in (0, 1], got " +
        std::to_string(threshold));
  }

  const int num_channels = static_cast<int>(channels.size());
  const int64_t n_win = params.window > 0
                            ? params.window
                            : std::min<int64_t>(128, series_length);
  const int64_t hop =
      params.hop > 0 ? params.hop : std::max<int64_t>(n_win / 2, 1);
  const int64_t td = params.td_max;
  const int64_t last_start = series_length - n_win;
  const int64_t num_grid = last_start / hop + 1;

  PrefilterOutcome outcome;
  PrefilterStats& stats = outcome.stats;
  stats.channels = num_channels;
  stats.pairs_total =
      static_cast<int64_t>(num_channels) * (num_channels - 1) / 2;
  stats.stage1_candidates = stats.pairs_total;
  stats.threshold = threshold;

  static obs::Counter* pairs_in = obs::GetCounter("prefilter.pairs_in");
  static obs::Counter* stage2_out =
      obs::GetCounter("prefilter.stage2.candidates");
  static obs::Counter* pruned = obs::GetCounter("prefilter.pairs_pruned");
  static obs::Counter* runs = obs::GetCounter("prefilter.runs");

  Stopwatch stage2_watch;
  const int threads = static_cast<int>(std::min<int64_t>(
      ThreadPool::ResolveThreadCount(params.num_threads), num_channels));
  ThreadPool pool(threads - 1);

  // Probe starts: every window start within ±td of a hop-grid start (the
  // delayed partner of a grid window can begin anywhere in that band), as
  // a sorted union. Each grid band [lo, hi] is a run of consecutive slots
  // starting at band_slot[g].
  std::vector<int64_t> probe_starts;
  std::vector<size_t> band_slot(static_cast<size_t>(num_grid));
  {
    int64_t next = 0;
    for (int64_t g = 0; g < num_grid; ++g) {
      const int64_t lo = std::max<int64_t>(g * hop - td, 0);
      const int64_t hi = std::min<int64_t>(g * hop + td, last_start);
      band_slot[static_cast<size_t>(g)] = static_cast<size_t>(
          std::lower_bound(probe_starts.begin(), probe_starts.end(), lo) -
          probe_starts.begin());
      for (int64_t s = std::max(lo, next); s <= hi; ++s) {
        probe_starts.push_back(s);
      }
      next = std::max(next, hi + 1);
    }
  }

  // Window moments of every channel at every probe start, computed once
  // and shared by all the channel's pairs.
  const size_t num_slots = probe_starts.size();
  std::vector<WindowMoments> moments(static_cast<size_t>(num_channels) *
                                     num_slots);
  ThreadPool::ForStatus fs = pool.ParallelFor(
      num_channels, ctx, [&](int64_t c) -> std::optional<StopReason> {
        const double* xs = channels[static_cast<size_t>(c)].values().data();
        WindowMoments* out =
            moments.data() + static_cast<size_t>(c) * num_slots;
        for (size_t p = 0; p < num_slots; ++p) {
          out[p] = MomentsAt(xs + probe_starts[p], n_win);
        }
        return std::nullopt;
      });
  if (fs.stop.has_value()) {
    stats.stage2_seconds = stage2_watch.ElapsedSeconds();
    outcome.stop = fs.stop;
    return outcome;
  }

  // Exact sliding Pearson over every pair: the max |r| over (hop-grid
  // start on either channel) × (every |delay| <= td), scanned in that
  // order and stopped as soon as the threshold is crossed. Each pair's
  // scan is a pure function stored in its own slot, and the slots are in
  // (a, b) order, so the survivor list is the same at any thread count.
  struct PairVerdict {
    int a = 0;
    int b = 0;
    double best = 0.0;
    bool pass = false;
  };
  std::vector<PairVerdict> verdicts;
  verdicts.reserve(static_cast<size_t>(stats.pairs_total));
  for (int a = 0; a < num_channels; ++a) {
    for (int b = a + 1; b < num_channels; ++b) {
      PairVerdict v;
      v.a = a;
      v.b = b;
      verdicts.push_back(v);
    }
  }
  const double accept = threshold - kPearsonGuard;
  const size_t max_band =
      static_cast<size_t>(std::min(2 * td + 1, last_start + 1));
  const size_t m = static_cast<size_t>(n_win);
  const double dm = static_cast<double>(n_win);
  const double two_n = 2.0 * static_cast<double>(n_win);
  fs = pool.ParallelFor(
      stats.pairs_total, ctx, [&](int64_t idx) -> std::optional<StopReason> {
        PairVerdict& v = verdicts[static_cast<size_t>(idx)];
        std::vector<double> dots(max_band);
#if TYCOS_AUDIT_ENABLED
        std::vector<double> ref(max_band);
#endif
        for (int dir = 0; dir < 2 && !v.pass; ++dir) {
          const size_t qc = static_cast<size_t>(dir == 0 ? v.a : v.b);
          const size_t tc = static_cast<size_t>(dir == 0 ? v.b : v.a);
          const double* qs = channels[qc].values().data();
          const double* ts = channels[tc].values().data();
          const WindowMoments* q_mom = moments.data() + qc * num_slots;
          const WindowMoments* t_mom = moments.data() + tc * num_slots;
          for (int64_t g = 0; g < num_grid && !v.pass; ++g) {
            const int64_t qstart = g * hop;
            const int64_t lo = std::max<int64_t>(qstart - td, 0);
            const int64_t hi = std::min<int64_t>(qstart + td, last_start);
            const size_t nb = static_cast<size_t>(hi - lo + 1);
            simd::SlidingDots(qs + qstart, m, ts + lo, nb, dots.data());
#if TYCOS_AUDIT_ENABLED
            {
              static audit::Auditor* simd_audit =
                  audit::Get("simd_vs_scalar");
              if (simd_audit->ShouldSample(256)) {
                simd::SlidingDotsScalar(qs + qstart, m, ts + lo, nb,
                                        ref.data());
                TYCOS_AUDIT_CHECK(
                    simd_audit,
                    std::equal(ref.data(), ref.data() + nb, dots.data()),
                    "prefilter sliding dots: SIMD != scalar at band=" +
                        std::to_string(nb));
              }
            }
#endif
            // The query window starts on the grid, so its moments sit in
            // the band's own slots at offset qstart - lo.
            const size_t slot = band_slot[static_cast<size_t>(g)];
            const WindowMoments q =
                q_mom[slot + static_cast<size_t>(qstart - lo)];
            const WindowMoments* w = t_mom + slot;
            for (size_t i = 0; i < nb; ++i) {
              // r is taken through the z-normalized distance
              // sqrt(2n(1 - r)) and back: that rounding (and the clamp
              // to r <= 1) is part of the best_pearson bits, which the
              // direct scan in tests/prefilter_test.cc computes alike.
              double dist = std::sqrt(2.0 * dm);
              if (q.std >= 1e-12 && w[i].std >= 1e-12) {
                const double r = (dots[i] - dm * q.mean * w[i].mean) /
                                 (dm * q.std * w[i].std);
                dist = std::sqrt(std::max(0.0, 2.0 * dm * (1.0 - r)));
              }
              const double abs_r = std::fabs(1.0 - dist * dist / two_n);
              if (abs_r > v.best) v.best = abs_r;
              if (v.best >= accept) {
                v.pass = true;
                break;
              }
            }
          }
        }
        return std::nullopt;
      });
  stats.stage2_seconds = stage2_watch.ElapsedSeconds();
  if (fs.stop.has_value()) {
    outcome.stop = fs.stop;
    return outcome;
  }

  for (const PairVerdict& v : verdicts) {
    if (!v.pass) continue;
    PrefilterSurvivor s;
    s.a = v.a;
    s.b = v.b;
    s.best_pearson = std::min(v.best, 1.0);
    outcome.survivors.push_back(s);
  }
  stats.stage2_survivors = static_cast<int64_t>(outcome.survivors.size());

  pairs_in->Add(stats.pairs_total);
  stage2_out->Add(stats.stage2_survivors);
  pruned->Add(stats.pairs_total - stats.stage2_survivors);
  runs->Add(1);
  return outcome;
}

}  // namespace tycos
