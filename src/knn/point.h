// 2-D point and k-NN query result types shared by the kNN backends.

#ifndef TYCOS_KNN_POINT_H_
#define TYCOS_KNN_POINT_H_

#include <cmath>

namespace tycos {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

// The interleaved (x0, y0, x1, y1, ...) view of a Point2 array that the
// SIMD distance and count kernels (common/simd.h) scan.
static_assert(sizeof(Point2) == 2 * sizeof(double),
              "Point2 must be two packed doubles");
inline const double* AsXy(const Point2* points) {
  return reinterpret_cast<const double*>(points);
}

// L∞ (maximum norm) distance, the metric of the paper's KSG formulation.
inline double ChebyshevDistance(const Point2& a, const Point2& b) {
  return std::max(std::fabs(a.x - b.x), std::fabs(a.y - b.y));
}

// Per-dimension extents of a point's k nearest neighbours: dx is the largest
// |x_i - x_j| and dy the largest |y_i - y_j| over the k neighbours found
// under L∞. These are exactly the (dx, dy) of the paper's Fig. 2, from which
// the marginal regions are formed.
struct KnnExtents {
  double dx = 0.0;
  double dy = 0.0;

  // Radius of the influenced region (Definition 7.1): d = max(dx, dy).
  double radius() const { return dx > dy ? dx : dy; }
};

}  // namespace tycos

#endif  // TYCOS_KNN_POINT_H_
