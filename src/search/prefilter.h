// Exact prefilter in front of PairwiseSearch: prunes the O(C²) pair
// universe down to the pairs that can plausibly hold a delay-correlated
// window, so full TYCOS runs on survivors only.
//
// One exact stage: a sliding-dot Pearson prescreen over every pair
// (a < b). The max |Pearson r| over (hop-grid start on either channel) ×
// (every delay |τ| ≤ td_max) at window length `window` is computed
// directly: the band's dot products from simd::SlidingDots over the
// channels' own samples, and each window's mean and σ from a per-channel
// table computed once per probe start before the pair scans. A pair's
// scan stops as soon as |r| reaches the threshold; pairs that never reach
// it are dropped. Full TYCOS then runs on the survivor list (the caller,
// search/allpairs.h). The stats and counters keep their stage-2 names
// (stage2_survivors, stage2_seconds, prefilter.stage2.candidates) from
// when a sketch stage ran first.
//
// No false dismissal: the prefilter evaluates the guarantee family
// (grid start on either channel, |delay| ≤ td_max, either sign, window
// length `window`) exactly, so a pair with any window of |r| ≥ T in it
// always survives — the prefilter is LOSSLESS for linear correlation at
// its scale. MI can exceed what Pearson sees (nonlinear, or at other
// window lengths), which is why the threshold is derived conservatively
// from σ (see mi_conservativeness) rather than equated with it.
//
// Determinism: the moments table and each pair's scan are pure per-unit
// functions; parallel phases store into pre-sized slots in (a, b) order,
// so the survivor list is bit-identical at any thread count.

#ifndef TYCOS_SEARCH_PREFILTER_H_
#define TYCOS_SEARCH_PREFILTER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"

namespace tycos {

struct PrefilterParams {
  // Window length n. <= 0 = auto: min(128, series length). The recall
  // guarantee is stated at this scale; windows much shorter or longer are
  // covered only insofar as their correlation bleeds into length-n
  // windows.
  int64_t window = 0;

  // Grid step between query window starts. <= 0 = auto: window / 2
  // (adjacent grid windows overlap by half, so no alignment can hide
  // between grid points entirely).
  int64_t hop = 0;

  // Unused (the sketch stage is gone): not read, validated or hashed.
  int paa_segments = 8;
  // Unused (the sketch stage is gone): not read, validated or hashed.
  int svd_dims = 2;

  // Maximum |delay| (samples) the prefilter must preserve. < 0 = derive
  // from TycosParams.td_max (done by AllPairsSearch); RunPrefilter itself
  // requires an explicit value >= 0.
  int64_t td_max = -1;

  // Pearson threshold T in (0, 1]. When 0, T is derived as
  // mi_conservativeness × TycosParams.sigma — the normalized-MI score of
  // the search equals |r| for a perfectly linear relation, so scaling σ
  // down buys headroom for relations whose MI outruns their linear
  // correlation.
  double pearson_threshold = 0.0;

  // Fraction of σ used when pearson_threshold is 0 (see above). 1.0 =
  // prune exactly at σ (lossless for linear correlation only).
  double mi_conservativeness = 0.75;

  // Executor count for the parallel phases; same semantics as
  // TycosParams::num_threads (1 = sequential, <= 0 = hardware).
  int num_threads = 1;

  // Validates ranges against the (shared) series length.
  Status Validate(int64_t series_length) const;
};

// Resolved Pearson threshold for this prefilter configuration: the
// explicit pearson_threshold when set, otherwise
// mi_conservativeness × sigma, clamped to (0, 1].
double ResolvePearsonThreshold(const PrefilterParams& params, double sigma);

struct PrefilterStats {
  int64_t channels = 0;
  int64_t pairs_total = 0;        // C(channels, 2): pairs scanned
  int64_t stage1_candidates = 0;  // always pairs_total (no sketch stage)
  int64_t stage2_survivors = 0;   // pairs out of the prefilter (into TYCOS)
  double stage1_seconds = 0.0;    // always 0 (no sketch stage)
  double stage2_seconds = 0.0;    // moments table + pair scans
  double threshold = 0.0;         // resolved T

  // Fraction of the pair universe pruned before TYCOS.
  double PruningRate() const {
    return pairs_total > 0
               ? 1.0 - static_cast<double>(stage2_survivors) /
                           static_cast<double>(pairs_total)
               : 0.0;
  }
};

struct PrefilterSurvivor {
  int a = 0;  // channel indices, a < b
  int b = 0;
  // Strongest |Pearson r| the scan saw before accepting the pair (it
  // stops early once the threshold is crossed, so this is a lower bound
  // on the true best over the guarantee family).
  double best_pearson = 0.0;
};

struct PrefilterOutcome {
  // Survivors in canonical (a, b) order. When `stop` is set the prefilter
  // was cut short by the RunContext and this list is INCOMPLETE — callers
  // must rerun the prefilter rather than treat missing pairs as pruned
  // (the durable layer never persists a stopped outcome).
  std::vector<PrefilterSurvivor> survivors;
  PrefilterStats stats;
  std::optional<StopReason> stop;

  // The survivor list as the plain pair list SearchPairList consumes.
  std::vector<std::pair<int, int>> PairList() const;
};

// Runs the prefilter over `channels` (>= 2, equal lengths, finite values)
// with the resolved Pearson threshold T in (0, 1]. Emits the prefilter.*
// obs counters (pairs in, survivors, pairs pruned) once per run.
Result<PrefilterOutcome> RunPrefilter(const std::vector<TimeSeries>& channels,
                                      const PrefilterParams& params,
                                      double threshold, const RunContext& ctx);

}  // namespace tycos

#endif  // TYCOS_SEARCH_PREFILTER_H_
