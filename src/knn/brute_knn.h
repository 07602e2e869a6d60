// Brute-force k-nearest-neighbour queries under the L∞ norm. O(m) per query;
// the reference backend against which the k-d tree is property-tested, and
// the workhorse for small windows where tree overhead does not pay off.

#ifndef TYCOS_KNN_BRUTE_KNN_H_
#define TYCOS_KNN_BRUTE_KNN_H_

#include <cstddef>
#include <vector>

#include "knn/knn_selector.h"
#include "knn/point.h"

namespace tycos {

// Reusable buffers of one brute scan: the distance row and the selector.
// Once grown to the point count and k, a scan allocates nothing.
struct BruteKnnScratch {
  std::vector<double> row;
  KnnSelector selector;
};

// The brute kernel: one vectorized L∞ distance row from `probe` to
// points[0, n), then an index-order pass of the selector over it. Returns
// the extents of the k nearest, skipping index `exclude` (pass n to exclude
// nothing). Requires k >= 1 and at least k candidates.
KnnExtents BruteKnnScan(const Point2* points, size_t n, const Point2& probe,
                        int k, size_t exclude, BruteKnnScratch* scratch);

// Finds the per-dimension extents of the k nearest neighbours (L∞, self
// excluded) of points[query] among `points`. Requires k >= 1 and
// points.size() >= k + 1.
KnnExtents BruteKnnExtents(const std::vector<Point2>& points, size_t query,
                           int k);

// Same, but for an arbitrary probe location not necessarily in `points`
// (nothing is excluded). Requires points.size() >= k.
KnnExtents BruteKnnExtentsAt(const std::vector<Point2>& points,
                             const Point2& probe, int k);

// Number of i with |points[i].x - x| <= dx, excluding index `exclude`
// (pass points.size() to exclude nothing).
size_t CountWithinX(const std::vector<Point2>& points, double x, double dx,
                    size_t exclude);

// Number of i with |points[i].y - y| <= dy, excluding index `exclude`.
size_t CountWithinY(const std::vector<Point2>& points, double y, double dy,
                    size_t exclude);

}  // namespace tycos

#endif  // TYCOS_KNN_BRUTE_KNN_H_
