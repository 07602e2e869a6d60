#include "knn/brute_knn.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/check.h"
#include "common/simd.h"

namespace tycos {

namespace {

// Marginal count over one interleaved lane with the `exclude` element
// subtracted afterwards (cheaper than masking it out of the vector scan;
// NaN-safe because a NaN coordinate never passes either the vector or the
// scalar re-test).
size_t CountWithinLane(const double* base, size_t n, double center, double d,
                       size_t exclude) {
  size_t count = simd::CountWithinInterleaved(base, n, center, d);
  if (exclude < n && std::fabs(base[2 * exclude] - center) <= d) --count;
  return count;
}

// Scratch of the std::vector entry points, one per thread.
BruteKnnScratch& ThreadScratch() {
  thread_local BruteKnnScratch scratch;
  return scratch;
}

}  // namespace

KnnExtents BruteKnnScan(const Point2* points, size_t n, const Point2& probe,
                        int k, size_t exclude, BruteKnnScratch* scratch) {
  TYCOS_CHECK_GE(k, 1);
  if (scratch->row.size() < n) scratch->row.resize(n);
  double* row = scratch->row.data();
  const double* xy = AsXy(points);
  simd::ChebyshevToProbe(xy, n, probe.x, probe.y, row);
#if TYCOS_AUDIT_ENABLED
  {
    static audit::Auditor* simd_audit = audit::Get("simd_vs_scalar");
    if (simd_audit->ShouldSample(64)) {
      std::vector<double> ref(n);
      simd::ChebyshevToProbeScalar(xy, n, probe.x, probe.y, ref.data());
      TYCOS_AUDIT_CHECK(simd_audit, std::equal(ref.begin(), ref.end(), row),
                        "brute kNN distance row: SIMD != scalar at n=" +
                            std::to_string(n));
    }
  }
#endif
  // Two index-order runs around the excluded slot, so the selector's
  // strict-compare fast path keeps the (distance, index) tie-break.
  KnnSelector& selector = scratch->selector;
  selector.Reset(static_cast<size_t>(k));
  const size_t cut = std::min(exclude, n);
  selector.OfferRow(row, 0, cut);
  selector.OfferRow(row, std::min(cut + 1, n), n);
  TYCOS_CHECK(selector.full());
  return selector.Extents(points, probe);
}

KnnExtents BruteKnnExtents(const std::vector<Point2>& points, size_t query,
                           int k) {
  TYCOS_CHECK_LT(query, points.size());
  TYCOS_CHECK_GE(points.size(), static_cast<size_t>(k) + 1);
  return BruteKnnScan(points.data(), points.size(), points[query], k, query,
                      &ThreadScratch());
}

KnnExtents BruteKnnExtentsAt(const std::vector<Point2>& points,
                             const Point2& probe, int k) {
  TYCOS_CHECK_GE(points.size(), static_cast<size_t>(k));
  return BruteKnnScan(points.data(), points.size(), probe, k, points.size(),
                      &ThreadScratch());
}

size_t CountWithinX(const std::vector<Point2>& points, double x, double dx,
                    size_t exclude) {
  return CountWithinLane(AsXy(points.data()), points.size(), x, dx, exclude);
}

size_t CountWithinY(const std::vector<Point2>& points, double y, double dy,
                    size_t exclude) {
  return CountWithinLane(AsXy(points.data()) + 1, points.size(), y, dy,
                         exclude);
}

}  // namespace tycos
