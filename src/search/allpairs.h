// All-pairs discovery at production channel counts: the prefilter cascade
// (search/prefilter.h) in front of PairwiseSearch. RunPrefilter prunes the
// O(C²) pair universe to the pairs that can plausibly hold a correlated
// window, then SearchPairList runs full TYCOS on the survivors only —
// per-pair results are bit-identical to a full PairwiseSearch over the
// same channels (PairwiseSeed depends only on (seed, a, b)).
//
// For the durable (checkpoint/resume) variant that also persists the
// survivor list, see jobs/durable_pairwise.h (ResumeAllPairsSearch).

#ifndef TYCOS_SEARCH_ALLPAIRS_H_
#define TYCOS_SEARCH_ALLPAIRS_H_

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"
#include "search/pairwise.h"
#include "search/params.h"
#include "search/prefilter.h"
#include "search/tycos.h"

namespace tycos {

struct AllPairsOptions {
  // Prefilter configuration. Fields left at their auto defaults are
  // resolved against the data and TycosParams: window/hop from the series
  // length, td_max from params.td_max, the Pearson threshold from
  // params.sigma × mi_conservativeness, num_threads from
  // params.num_threads when left at 1.
  PrefilterParams prefilter;
};

struct AllPairsResult {
  // TYCOS over the survivors; entries ordered like PairwiseSearch.
  // pairs_skipped counts survivors not reached before a stop — pruned
  // pairs are accounted separately in `pairs_pruned`, never as skipped.
  PairwiseResult result;
  // Prefilter telemetry, including the resolved threshold.
  PrefilterStats prefilter;
  // Survivor list the search ran over (canonical (a, b) order), with the
  // Pearson evidence that admitted each pair.
  std::vector<PrefilterSurvivor> survivors;
  int64_t pairs_pruned = 0;  // pairs_total − survivors
};

// Prefilter + TYCOS over `channels`. A RunContext stop during the cascade
// returns early with result.partial = true and every pair skipped (a
// partial prefilter must never be mistaken for pruning); a stop during
// the search behaves like PairwiseSearch over the survivor universe.
Result<AllPairsResult> AllPairsSearch(const std::vector<TimeSeries>& channels,
                                      const TycosParams& params,
                                      TycosVariant variant, uint64_t seed,
                                      const RunContext& ctx,
                                      const AllPairsOptions& options = {});

// The option resolution AllPairsSearch applies (exposed so the durable
// layer and tests derive the identical cascade configuration): fills
// auto fields from (params, series_length) as described above.
PrefilterParams ResolveAllPairsPrefilter(const PrefilterParams& prefilter,
                                         const TycosParams& params,
                                         int64_t series_length);

}  // namespace tycos

#endif  // TYCOS_SEARCH_ALLPAIRS_H_
