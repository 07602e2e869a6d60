#include "search/prefilter.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "datagen/clusters.h"
#include "mi/pearson.h"

namespace tycos {
namespace {

using datagen::ClusteredDataset;
using datagen::ClusterGenOptions;
using datagen::MakeCorrelatedClusters;

ClusteredDataset MakeDataset(uint64_t seed, int channels = 24,
                             int clusters = 3, int members = 3,
                             int64_t length = 512, int64_t max_delay = 6) {
  ClusterGenOptions opt;
  opt.num_channels = channels;
  opt.num_clusters = clusters;
  opt.channels_per_cluster = members;
  opt.length = length;
  opt.max_delay = max_delay;
  opt.member_noise = 0.3;
  opt.seed = seed;
  auto ds = MakeCorrelatedClusters(opt);
  EXPECT_TRUE(ds.ok()) << ds.status().message();
  return std::move(ds.value());
}

PrefilterParams SmallParams() {
  PrefilterParams p;
  p.window = 64;
  p.hop = 32;
  p.td_max = 6;
  return p;
}

// Brute-force maximum |Pearson r| over the prefilter's recall-guarantee
// family: (query side a or b) × (hop-grid start on the query side) ×
// (every window start within ±td of it on the other side), at window
// length n. The property tests compare the prefilter against this oracle.
double BestFamilyPearson(const std::vector<TimeSeries>& channels, int a,
                         int b, const PrefilterParams& p) {
  const int64_t n = p.window;
  const int64_t last_start = channels[0].size() - n;
  double best = 0.0;
  for (int dir = 0; dir < 2; ++dir) {
    const TimeSeries& qs = channels[static_cast<size_t>(dir == 0 ? a : b)];
    const TimeSeries& ts = channels[static_cast<size_t>(dir == 0 ? b : a)];
    for (int64_t g = 0; g * p.hop <= last_start; ++g) {
      const int64_t qstart = g * p.hop;
      const std::vector<double> query = qs.Slice(qstart, qstart + n - 1);
      const int64_t lo = std::max<int64_t>(qstart - p.td_max, 0);
      const int64_t hi = std::min<int64_t>(qstart + p.td_max, last_start);
      for (int64_t s = lo; s <= hi; ++s) {
        const double r =
            PearsonCorrelation(query, ts.Slice(s, s + n - 1));
        best = std::max(best, std::fabs(r));
      }
    }
  }
  return best;
}

bool Survived(const PrefilterOutcome& out, int a, int b) {
  for (const PrefilterSurvivor& s : out.survivors) {
    if (s.a == a && s.b == b) return true;
  }
  return false;
}

// The recall property: across seeds, the prefilter NEVER prunes a pair
// whose best guarantee-family window has |Pearson r| >= T.
TEST(PrefilterRecallTest, NeverPrunesAPairAboveThreshold) {
  const double threshold = 0.4;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const ClusteredDataset ds = MakeDataset(seed);
    const PrefilterParams p = SmallParams();
    const auto out = RunPrefilter(ds.channels, p, threshold, RunContext());
    ASSERT_TRUE(out.ok()) << out.status().message();
    ASSERT_FALSE(out.value().stop.has_value());
    const int n = static_cast<int>(ds.channels.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const double best = BestFamilyPearson(ds.channels, a, b, p);
        if (best >= threshold) {
          EXPECT_TRUE(Survived(out.value(), a, b))
              << "seed " << seed << ": pair (" << a << ", " << b
              << ") with family |r| = " << best << " was pruned at T = "
              << threshold;
        }
      }
    }
  }
}

// A delay range wide enough for bands of 81 alignments, past the width
// of the kernel's widest register group, must uphold the same recall
// guarantee.
TEST(PrefilterRecallTest, WideDelayBandUsesFftPathAndStillRecalls) {
  const double threshold = 0.4;
  const ClusteredDataset ds =
      MakeDataset(31, /*channels=*/10, /*clusters=*/2, /*members=*/2,
                  /*length=*/384, /*max_delay=*/6);
  PrefilterParams p = SmallParams();
  p.td_max = 40;  // band = 81 alignments
  const auto out = RunPrefilter(ds.channels, p, threshold, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  const int n = static_cast<int>(ds.channels.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double best = BestFamilyPearson(ds.channels, a, b, p);
      if (best >= threshold) {
        EXPECT_TRUE(Survived(out.value(), a, b))
            << "pair (" << a << ", " << b << ") with family |r| = " << best
            << " was pruned at T = " << threshold;
      }
    }
  }
}

// Anti-correlated pairs (r <= -T) must survive too: the prefilter scores
// |r|.
TEST(PrefilterRecallTest, KeepsAntiCorrelatedPairs) {
  const ClusteredDataset ds = MakeDataset(7, /*channels=*/8, /*clusters=*/1,
                                          /*members=*/2);
  std::vector<TimeSeries> channels = ds.channels;
  ASSERT_EQ(ds.pairs.size(), 1u);
  const int flip = ds.pairs[0].b;
  std::vector<double> negated = channels[static_cast<size_t>(flip)].values();
  for (double& v : negated) v = -v;
  channels[static_cast<size_t>(flip)] =
      TimeSeries(std::move(negated), "neg");

  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(Survived(out.value(), ds.pairs[0].a, ds.pairs[0].b));
}

// Every planted intra-cluster pair clears the oracle, so the prefilter
// must keep all of them while pruning a healthy share of the background pairs.
TEST(PrefilterTest, KeepsPlantedPairsAndPrunesBackground) {
  const ClusteredDataset ds = MakeDataset(11);
  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  for (const datagen::PlantedClusterPair& pair : ds.pairs) {
    EXPECT_TRUE(Survived(out.value(), pair.a, pair.b))
        << "planted pair (" << pair.a << ", " << pair.b << ") pruned";
  }
  const PrefilterStats& stats = out.value().stats;
  EXPECT_EQ(stats.pairs_total, 24 * 23 / 2);
  EXPECT_EQ(stats.stage2_survivors,
            static_cast<int64_t>(out.value().survivors.size()));
  EXPECT_GT(stats.PruningRate(), 0.5);
}

// best_pearson is a lower bound on the oracle (the scan stops at the
// threshold), and never exceeds it beyond rounding.
TEST(PrefilterTest, SurvivorEvidenceIsBoundedByTheOracle) {
  const ClusteredDataset ds = MakeDataset(13);
  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_FALSE(out.value().survivors.empty());
  for (const PrefilterSurvivor& s : out.value().survivors) {
    const double oracle = BestFamilyPearson(ds.channels, s.a, s.b, p);
    EXPECT_LE(s.best_pearson, oracle + 1e-6);
    EXPECT_GE(s.best_pearson, 0.5 - 1e-6);
  }
}

// Survivors arrive in canonical (a, b) order with a < b.
TEST(PrefilterTest, SurvivorsAreCanonicallyOrdered) {
  const ClusteredDataset ds = MakeDataset(17);
  const auto out =
      RunPrefilter(ds.channels, SmallParams(), 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  const auto pairs = out.value().PairList();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i].first, pairs[i].second);
    if (i > 0) {
      EXPECT_LT(pairs[i - 1], pairs[i]);
    }
  }
}

// The survivor list (and its evidence) is bit-identical at 1, 2, and 8
// threads — the determinism contract the durable layer persists against.
TEST(PrefilterTest, SurvivorsAreBitIdenticalAcrossThreadCounts) {
  const ClusteredDataset ds = MakeDataset(19);
  PrefilterParams p = SmallParams();
  p.num_threads = 1;
  const auto base = RunPrefilter(ds.channels, p, 0.45, RunContext());
  ASSERT_TRUE(base.ok()) << base.status().message();
  for (int threads : {2, 8}) {
    p.num_threads = threads;
    const auto out = RunPrefilter(ds.channels, p, 0.45, RunContext());
    ASSERT_TRUE(out.ok()) << out.status().message();
    ASSERT_EQ(out.value().survivors.size(), base.value().survivors.size())
        << "at " << threads << " threads";
    for (size_t i = 0; i < base.value().survivors.size(); ++i) {
      EXPECT_EQ(out.value().survivors[i].a, base.value().survivors[i].a);
      EXPECT_EQ(out.value().survivors[i].b, base.value().survivors[i].b);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(out.value().survivors[i].best_pearson,
                base.value().survivors[i].best_pearson)
          << "at " << threads << " threads, survivor " << i;
    }
  }
}

// The verdict on one pair by the direct per-pair scan: slice the
// query and the delay band out of the channels, scan every alignment with
// its own sums, and stop at the first |r| that reaches the accept level.
// The prefilter reads window moments from per-channel tables and the dot
// products from simd::SlidingDots; both must reproduce these bits.
struct DirectVerdict {
  double best = 0.0;
  bool pass = false;
  int64_t scanned = 0;  // alignments scanned before the verdict
};

DirectVerdict DirectScanVerdict(const std::vector<TimeSeries>& channels,
                                int a, int b, const PrefilterParams& p,
                                double threshold) {
  const int64_t n_win = p.window;
  const int64_t last_start = channels[0].size() - n_win;
  const double accept = threshold - 1e-6;
  const double dm = static_cast<double>(n_win);
  const double two_n = 2.0 * dm;
  DirectVerdict v;
  for (int dir = 0; dir < 2 && !v.pass; ++dir) {
    const TimeSeries& qs = channels[static_cast<size_t>(dir == 0 ? a : b)];
    const TimeSeries& ts = channels[static_cast<size_t>(dir == 0 ? b : a)];
    for (int64_t qstart = 0; qstart <= last_start && !v.pass;
         qstart += p.hop) {
      const int64_t lo = std::max<int64_t>(qstart - p.td_max, 0);
      const int64_t hi = std::min<int64_t>(qstart + p.td_max, last_start);
      const std::vector<double> query = qs.Slice(qstart, qstart + n_win - 1);
      const std::vector<double> slice = ts.Slice(lo, hi + n_win - 1);
      double q_sum = 0.0;
      double q_sq = 0.0;
      for (const double x : query) {
        q_sum += x;
        q_sq += x * x;
      }
      const double q_mean = q_sum / dm;
      const double q_std =
          std::sqrt(std::max(0.0, q_sq / dm - q_mean * q_mean));
      for (int64_t i = 0; i + n_win <= static_cast<int64_t>(slice.size());
           ++i) {
        double w_sum = 0.0;
        double w_sq = 0.0;
        double dot = 0.0;
        for (int64_t j = 0; j < n_win; ++j) {
          const double w = slice[static_cast<size_t>(i + j)];
          w_sum += w;
          w_sq += w * w;
          dot += query[static_cast<size_t>(j)] * w;
        }
        const double w_mean = w_sum / dm;
        const double w_std =
            std::sqrt(std::max(0.0, w_sq / dm - w_mean * w_mean));
        double dist = std::sqrt(2.0 * dm);
        if (q_std >= 1e-12 && w_std >= 1e-12) {
          const double r =
              (dot - dm * q_mean * w_mean) / (dm * q_std * w_std);
          dist = std::sqrt(std::max(0.0, 2.0 * dm * (1.0 - r)));
        }
        const double abs_r = std::fabs(1.0 - dist * dist / two_n);
        ++v.scanned;
        if (abs_r > v.best) v.best = abs_r;
        if (v.best >= accept) {
          v.pass = true;
          break;
        }
      }
    }
  }
  return v;
}

// The prefilter's verdict on every pair equals the direct scan's: exactly
// the pairs it passes survive, in (a, b) order, each with the direct
// scan's best |r| bits. Returns how many survivors stopped their scan
// before the end of the family.
int ExpectMatchesDirectScan(const std::vector<TimeSeries>& channels,
                            const PrefilterParams& p, double threshold) {
  const int n = static_cast<int>(channels.size());
  // Alignments in one pair's full family: 2 directions x the grid bands.
  const int64_t last_start = channels[0].size() - p.window;
  int64_t family = 0;
  for (int64_t g = 0; g <= last_start; g += p.hop) {
    family += 2 * (std::min(g + p.td_max, last_start) -
                   std::max<int64_t>(g - p.td_max, 0) + 1);
  }
  const auto out = RunPrefilter(channels, p, threshold, RunContext());
  EXPECT_TRUE(out.ok()) << out.status().message();
  if (!out.ok()) return 0;
  const PrefilterOutcome& o = out.value();
  int early_exits = 0;
  size_t next = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const DirectVerdict want = DirectScanVerdict(channels, a, b, p,
                                                   threshold);
      const bool kept = next < o.survivors.size() &&
                        o.survivors[next].a == a && o.survivors[next].b == b;
      EXPECT_EQ(kept, want.pass) << "pair (" << a << ", " << b << ")";
      if (!kept) continue;
      EXPECT_EQ(o.survivors[next].best_pearson, std::min(want.best, 1.0))
          << "pair (" << a << ", " << b << ")";
      if (want.scanned < family) ++early_exits;
      ++next;
    }
  }
  EXPECT_EQ(next, o.survivors.size()) << "survivors out of order";
  return early_exits;
}

// The prefilter keeps the bits of the direct scan on the shapes its
// tables and kernel must get right: bands that overlap (hop 16 <
// 2 td + 1 = 21), bands clipped at 0 and at last_start (452 = 512 - 60,
// within td of the last grid start 448), a channel whose flat stretch
// holds whole constant windows (the sigma < 1e-12 branch), and T = 0.5
// and T = 0.9, where the early exit fires and where most pairs run their
// whole family.
TEST(PrefilterTest, StageTwoMatchesTheDirectScanBitForBit) {
  ClusteredDataset ds = MakeDataset(37, /*channels=*/16, /*clusters=*/3,
                                    /*members=*/3);
  // The stretch opens the lower channel of a planted pair, so that pair's
  // scan meets the constant windows before it reaches the threshold. 2.5
  // and its square are exact: the variance inside is exactly 0.
  const size_t flat_channel = static_cast<size_t>(ds.pairs[0].a);
  std::vector<double> flat = ds.channels[flat_channel].values();
  for (size_t i = 0; i < 150; ++i) flat[i] = 2.5;
  ds.channels[flat_channel] = TimeSeries(std::move(flat), "flat");
  PrefilterParams p = SmallParams();
  p.window = 60;  // not a power of two: 1/n and n· round, so a reordered
                  // moment or Pearson formula changes bits
  p.hop = 16;
  p.td_max = 10;
  for (const double threshold : {0.5, 0.9}) {
    SCOPED_TRACE(testing::Message() << "T = " << threshold);
    EXPECT_GT(ExpectMatchesDirectScan(ds.channels, p, threshold), 0);
  }
}

// A band of 81 alignments (td_max = 40) runs through the same kernel and
// formula, so its best |r| keeps the direct scan's bits too.
TEST(PrefilterTest, WideBandMatchesTheDirectScanBitForBit) {
  const ClusteredDataset ds =
      MakeDataset(31, /*channels=*/10, /*clusters=*/2, /*members=*/2,
                  /*length=*/384, /*max_delay=*/6);
  PrefilterParams p = SmallParams();
  p.window = 60;
  p.hop = 30;
  p.td_max = 40;
  for (const double threshold : {0.4, 0.9}) {
    SCOPED_TRACE(testing::Message() << "T = " << threshold);
    EXPECT_GT(ExpectMatchesDirectScan(ds.channels, p, threshold), 0);
  }
}

TEST(PrefilterTest, CancelledContextReportsStopNotSurvivors) {
  const ClusteredDataset ds = MakeDataset(23);
  RunContext ctx;
  ctx.RequestCancel();
  const auto out = RunPrefilter(ds.channels, SmallParams(), 0.5, ctx);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out.value().stop.has_value());
  EXPECT_EQ(*out.value().stop, StopReason::kCancelled);
}

TEST(PrefilterTest, ValidatesParams) {
  const ClusteredDataset ds = MakeDataset(29, /*channels=*/4, /*clusters=*/1,
                                          /*members=*/2);
  PrefilterParams p = SmallParams();
  p.td_max = -1;  // RunPrefilter requires an explicit delay range
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.5, RunContext()).ok());

  p = SmallParams();
  p.window = 100000;
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.5, RunContext()).ok());

  p = SmallParams();
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.0, RunContext()).ok());
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 1.5, RunContext()).ok());
}

TEST(PrefilterTest, ResolvesThresholdFromSigma) {
  PrefilterParams p;
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.75 * 0.5);
  p.pearson_threshold = 0.9;  // explicit wins over the derivation
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.9);
  p.pearson_threshold = 0.0;
  p.mi_conservativeness = 1.0;
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.0), 1e-6);  // clamped
}

}  // namespace
}  // namespace tycos
