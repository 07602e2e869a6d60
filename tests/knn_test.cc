#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "knn/brute_knn.h"
#include "knn/grid_index.h"
#include "knn/kd_tree.h"
#include "knn/knn_selector.h"
#include "knn/rank_index.h"

namespace tycos {
namespace {

TEST(ChebyshevDistanceTest, MaxNorm) {
  EXPECT_DOUBLE_EQ(ChebyshevDistance({0, 0}, {3, 4}), 4.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance({-2, 0}, {2, 1}), 4.0);
}

TEST(KnnExtentsTest, RadiusIsMax) {
  KnnExtents e{0.5, 0.8};
  EXPECT_DOUBLE_EQ(e.radius(), 0.8);
}

TEST(BruteKnnTest, PaperFigure2Example) {
  // Seven points roughly like the paper's Fig. 2: p1's two nearest
  // neighbours define the extents from which marginal counts come.
  std::vector<Point2> pts = {{2, 2}, {3, 2.5}, {2.5, 3}, {1.5, 4.5},
                             {4.5, 1.5}, {6, 5}, {0.2, 6.5}};
  const KnnExtents e = BruteKnnExtents(pts, 0, 2);
  // Neighbours of p1=(2,2) under L∞: p2 (d=1.0) and p3 (d=1.0).
  EXPECT_DOUBLE_EQ(e.dx, 1.0);   // max(|3-2|, |2.5-2|)
  EXPECT_DOUBLE_EQ(e.dy, 1.0);   // max(|2.5-2|, |3-2|)
  // Marginal counts within those extents (self excluded).
  EXPECT_EQ(CountWithinX(pts, 2.0, e.dx, 0), 3u);  // p2, p3, p4(x=1.5)
  EXPECT_EQ(CountWithinY(pts, 2.0, e.dy, 0), 3u);  // p2, p3, p5(y=1.5)
}

TEST(BruteKnnTest, SimpleLine) {
  std::vector<Point2> pts = {{0, 0}, {1, 0}, {2, 0}, {4, 0}, {8, 0}};
  const KnnExtents e = BruteKnnExtents(pts, 0, 2);
  EXPECT_DOUBLE_EQ(e.dx, 2.0);
  EXPECT_DOUBLE_EQ(e.dy, 0.0);
}

TEST(BruteKnnTest, ProbeNotInSet) {
  std::vector<Point2> pts = {{0, 0}, {10, 0}, {0, 10}};
  const KnnExtents e = BruteKnnExtentsAt(pts, {1, 1}, 1);
  EXPECT_DOUBLE_EQ(e.dx, 1.0);
  EXPECT_DOUBLE_EQ(e.dy, 1.0);
}

TEST(CountWithinTest, ExcludesIndex) {
  std::vector<Point2> pts = {{0, 0}, {0.5, 1}, {-0.5, 2}, {2, 3}};
  EXPECT_EQ(CountWithinX(pts, 0.0, 0.5, 0), 2u);
  EXPECT_EQ(CountWithinX(pts, 0.0, 0.5, pts.size()), 3u);  // nothing excluded
  EXPECT_EQ(CountWithinY(pts, 0.0, 1.0, 0), 1u);
}

// Reference selection: every candidate but `exclude`, sorted by
// (distance, index), first k.
std::vector<std::pair<double, size_t>> ReferenceKnn(
    const std::vector<Point2>& pts, const Point2& probe, size_t k,
    size_t exclude) {
  std::vector<std::pair<double, size_t>> all;
  for (size_t j = 0; j < pts.size(); ++j) {
    if (j != exclude) all.emplace_back(ChebyshevDistance(pts[j], probe), j);
  }
  std::sort(all.begin(), all.end());
  all.resize(k);
  return all;
}

void ExpectSelection(const KnnSelector& selector,
                     const std::vector<std::pair<double, size_t>>& want) {
  ASSERT_EQ(selector.size(), want.size());
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(selector.distance(s), want[s].first) << "rank " << s;
    EXPECT_EQ(selector.index(s), want[s].second) << "rank " << s;
  }
}

// The shared top-k selector against the sort-and-take-k reference: the
// brute kernel's index-order row scan (with the excluded slot at 0, inside
// the warm-up fill, at the last index, and absent) and the any-order Offer
// path the tree and grid walks use. Every m from k + 1 to 300 covers every
// SIMD tail width; odd cases draw discrete coordinates so distances tie.
TEST(KnnSelectorTest, MatchesSortedReference) {
  Rng rng(2024);
  for (size_t k : {size_t{1}, size_t{4}, size_t{8}}) {
    for (size_t m = k + 1; m <= 300; ++m) {
      const bool discrete = m % 2 == 1;
      std::vector<Point2> pts(m);
      for (Point2& p : pts) {
        p.x = discrete ? static_cast<double>(rng.UniformInt(0, 3))
                       : rng.Normal();
        p.y = discrete ? static_cast<double>(rng.UniformInt(0, 3))
                       : rng.Normal();
      }
      BruteKnnScratch scratch;
      for (size_t exclude : {size_t{0}, k / 2, m - 1, m}) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " m=" << m
                                        << " exclude=" << exclude);
        const Point2 probe =
            exclude < m ? pts[exclude] : Point2{rng.Normal(), rng.Normal()};
        const auto want = ReferenceKnn(pts, probe, k, exclude);
        KnnExtents want_e;
        for (const auto& c : want) {
          const Point2& p = pts[c.second];
          want_e.dx = std::max(want_e.dx, std::fabs(p.x - probe.x));
          want_e.dy = std::max(want_e.dy, std::fabs(p.y - probe.y));
        }

        const KnnExtents e = BruteKnnScan(pts.data(), m, probe,
                                          static_cast<int>(k), exclude,
                                          &scratch);
        ExpectSelection(scratch.selector, want);
        EXPECT_EQ(e.dx, want_e.dx);
        EXPECT_EQ(e.dy, want_e.dy);

        std::vector<size_t> order(m);
        std::iota(order.begin(), order.end(), size_t{0});
        for (size_t i = m - 1; i > 0; --i) {
          std::swap(order[i], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i)))]);
        }
        KnnSelector shuffled;
        shuffled.Reset(k);
        for (size_t j : order) {
          if (j == exclude) continue;
          shuffled.Offer(ChebyshevDistance(pts[j], probe), j);
        }
        ExpectSelection(shuffled, want);
      }
    }
  }
}

struct KnnCase {
  int n;
  int k;
  uint64_t seed;
};

class KdTreeAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KdTreeAgreementTest, MatchesBruteForceExactly) {
  const KnnCase c = GetParam();
  Rng rng(c.seed);
  std::vector<Point2> pts(static_cast<size_t>(c.n));
  for (auto& p : pts) {
    p.x = rng.Normal(0.0, 1.0);
    p.y = rng.Normal(0.0, 1.0);
  }
  KdTree tree(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, c.k);
    const KnnExtents kd = tree.QueryExtents(i, c.k);
    ASSERT_DOUBLE_EQ(kd.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(kd.dy, brute.dy) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeAgreementTest,
    ::testing::Values(KnnCase{10, 1, 1}, KnnCase{10, 3, 2}, KnnCase{50, 2, 3},
                      KnnCase{100, 4, 4}, KnnCase{200, 4, 5},
                      KnnCase{333, 6, 6}, KnnCase{512, 8, 7},
                      KnnCase{1000, 4, 8}));

TEST(KdTreeAgreementTest, DuplicateCoordinates) {
  // Heavy ties: integer grid points repeated.
  Rng rng(99);
  std::vector<Point2> pts(200);
  for (auto& p : pts) {
    p.x = static_cast<double>(rng.UniformInt(0, 4));
    p.y = static_cast<double>(rng.UniformInt(0, 4));
  }
  KdTree tree(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 3);
    const KnnExtents kd = tree.QueryExtents(i, 3);
    ASSERT_DOUBLE_EQ(kd.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(kd.dy, brute.dy) << "point " << i;
  }
}

TEST(KdTreeTest, ProbeQueryMatchesBrute) {
  Rng rng(5);
  std::vector<Point2> pts(128);
  for (auto& p : pts) {
    p.x = rng.Uniform(-5, 5);
    p.y = rng.Uniform(-5, 5);
  }
  KdTree tree(pts);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 probe{rng.Uniform(-6, 6), rng.Uniform(-6, 6)};
    const KnnExtents brute = BruteKnnExtentsAt(pts, probe, 5);
    const KnnExtents kd = tree.QueryExtentsAt(probe, 5);
    ASSERT_DOUBLE_EQ(kd.dx, brute.dx);
    ASSERT_DOUBLE_EQ(kd.dy, brute.dy);
  }
}

class GridIndexAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(GridIndexAgreementTest, MatchesBruteForceExactly) {
  const KnnCase c = GetParam();
  Rng rng(c.seed + 1000);
  std::vector<Point2> pts(static_cast<size_t>(c.n));
  for (auto& p : pts) {
    p.x = rng.Normal(0.0, 1.0);
    p.y = rng.Normal(0.0, 1.0);
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, c.k);
    const KnnExtents g = grid.QueryExtents(i, c.k);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(g.dy, brute.dy) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridIndexAgreementTest,
    ::testing::Values(KnnCase{10, 1, 1}, KnnCase{10, 3, 2}, KnnCase{50, 2, 3},
                      KnnCase{100, 4, 4}, KnnCase{200, 4, 5},
                      KnnCase{333, 6, 6}, KnnCase{512, 8, 7},
                      KnnCase{1000, 4, 8}));

TEST(GridIndexTest, DuplicateCoordinates) {
  Rng rng(101);
  std::vector<Point2> pts(200);
  for (auto& p : pts) {
    p.x = static_cast<double>(rng.UniformInt(0, 4));
    p.y = static_cast<double>(rng.UniformInt(0, 4));
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 3);
    const KnnExtents g = grid.QueryExtents(i, 3);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(g.dy, brute.dy) << "point " << i;
  }
}

TEST(GridIndexTest, SkewedAspectRatio) {
  // x spans 1000x the range of y: cells stay square, grid gets elongated.
  Rng rng(103);
  std::vector<Point2> pts(300);
  for (auto& p : pts) {
    p.x = rng.Uniform(0, 1000);
    p.y = rng.Uniform(0, 1);
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 4);
    const KnnExtents g = grid.QueryExtents(i, 4);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx);
    ASSERT_DOUBLE_EQ(g.dy, brute.dy);
  }
}

TEST(GridIndexTest, ProbeQueryMatchesBrute) {
  Rng rng(105);
  std::vector<Point2> pts(128);
  for (auto& p : pts) {
    p.x = rng.Uniform(-5, 5);
    p.y = rng.Uniform(-5, 5);
  }
  GridIndex grid(pts);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 probe{rng.Uniform(-6, 6), rng.Uniform(-6, 6)};
    const KnnExtents brute = BruteKnnExtentsAt(pts, probe, 5);
    const KnnExtents g = grid.QueryExtentsAt(probe, 5);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx);
    ASSERT_DOUBLE_EQ(g.dy, brute.dy);
  }
}

TEST(GridIndexTest, AllPointsIdentical) {
  std::vector<Point2> pts(20, Point2{1.5, -2.5});
  GridIndex grid(pts);
  const KnnExtents e = grid.QueryExtents(0, 3);
  EXPECT_DOUBLE_EQ(e.dx, 0.0);
  EXPECT_DOUBLE_EQ(e.dy, 0.0);
}

TEST(RankIndexTest, InsertEraseCount) {
  RankIndex idx({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(idx.size(), 0);
  idx.Insert(2.0);
  idx.Insert(3.0);
  idx.Insert(3.0);  // duplicates allowed
  EXPECT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 3);
  EXPECT_EQ(idx.CountInRange(2.5, 10.0), 2);
  idx.Erase(3.0);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 2);
  EXPECT_EQ(idx.size(), 2);
}

TEST(RankIndexTest, ClosedIntervalSemantics) {
  RankIndex idx({1.0, 2.0, 3.0});
  idx.Insert(1.0);
  idx.Insert(3.0);
  EXPECT_EQ(idx.CountInRange(1.0, 3.0), 2);  // endpoints included
  EXPECT_EQ(idx.CountInRange(1.0001, 2.9999), 0);
  EXPECT_EQ(idx.CountInRange(3.0, 1.0), 0);  // inverted interval
}

TEST(RankIndexTest, RangeOutsideUniverse) {
  RankIndex idx({5.0, 6.0});
  idx.Insert(5.0);
  EXPECT_EQ(idx.CountInRange(-100.0, 100.0), 1);
  EXPECT_EQ(idx.CountInRange(7.0, 9.0), 0);
  EXPECT_EQ(idx.CountInRange(-9.0, 4.0), 0);
}

TEST(RankIndexTest, EmptyRangeCounts) {
  // The cases the marginal-count auditors lean on: a degenerate query
  // interval must count 0 whether the index is empty, the interval is
  // inverted, or it falls between stored values.
  RankIndex idx({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(idx.CountInRange(1.0, 4.0), 0);  // index is empty
  idx.Insert(1.0);
  idx.Insert(4.0);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 0);   // gap between stored values
  EXPECT_EQ(idx.CountInRange(4.0, 1.0), 0);   // inverted interval
  EXPECT_EQ(idx.CountInRange(1.5, 1.5), 0);   // point query, no occupant
  EXPECT_EQ(idx.CountInRange(4.0, 4.0), 1);   // point query, occupied
}

TEST(RankIndexTest, FullRangeCountsEqualSize) {
  // A closed interval covering the whole universe must count exactly
  // size(), with duplicates multiplicity-counted — the incremental KSG's
  // "count minus self" arithmetic depends on this.
  RankIndex idx({-2.0, 0.0, 3.5});
  idx.Insert(-2.0);
  idx.Insert(0.0);
  idx.Insert(0.0);
  idx.Insert(3.5);
  EXPECT_EQ(idx.size(), 4);
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), 4);      // exact hull
  EXPECT_EQ(idx.CountInRange(-1e300, 1e300), 4);  // unbounded hull
  idx.Erase(0.0);
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), 3);      // multiplicity respected
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), idx.size());
}

TEST(RankIndexTest, MatchesNaiveCountingUnderRandomOps) {
  Rng rng(17);
  std::vector<double> universe;
  for (int i = 0; i < 200; ++i) universe.push_back(rng.Uniform(-10, 10));
  RankIndex idx(universe);
  std::vector<double> present;
  for (int op = 0; op < 2000; ++op) {
    if (present.empty() || rng.Bernoulli(0.6)) {
      const double v =
          universe[static_cast<size_t>(rng.UniformInt(0, 199))];
      idx.Insert(v);
      present.push_back(v);
    } else {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1));
      idx.Erase(present[pos]);
      present.erase(present.begin() + static_cast<long>(pos));
    }
    if (op % 50 == 0) {
      const double lo = rng.Uniform(-12, 12);
      const double hi = lo + rng.Uniform(0, 8);
      int64_t naive = 0;
      for (double v : present) {
        if (v >= lo && v <= hi) ++naive;
      }
      ASSERT_EQ(idx.CountInRange(lo, hi), naive) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace tycos
