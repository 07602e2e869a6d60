// Exact top-k neighbour selection, shared by every kNN backend (brute scan,
// k-d tree, grid, the incremental estimator and the Theiler path).
//
// A candidate is a (distance, index) pair. The selector keeps the k smallest
// candidates under the lexicographic (distance, index) order, sorted. That
// order is total, so the neighbour set is unique: every backend returns the
// same set whatever order it visits candidates in, and the extents derived
// from it agree bit for bit.

#ifndef TYCOS_KNN_KNN_SELECTOR_H_
#define TYCOS_KNN_KNN_SELECTOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "knn/point.h"

namespace tycos {

class KnnSelector {
 public:
  // Empties the selection and sets its capacity to k (k >= 1; callers
  // check). Storage only grows, so a selector reused at the same k never
  // allocates.
  void Reset(size_t k) {
    k_ = k;
    size_ = 0;
    if (dist_.size() < k) {
      dist_.resize(k);
      index_.resize(k);
    }
  }

  size_t size() const { return size_; }
  bool full() const { return size_ == k_; }

  // The s-th best candidate so far, s < size().
  double distance(size_t s) const { return dist_[s]; }
  size_t index(size_t s) const { return index_[s]; }

  // Distance of the k-th best candidate so far; +inf until k were offered.
  double worst() const {
    return full() ? dist_[k_ - 1] : std::numeric_limits<double>::infinity();
  }

  // Offers one candidate, in any visiting order (tree and grid walks).
  void Offer(double d, size_t id) {
    if (full()) {
      if (!Before(d, id, dist_[k_ - 1], index_[k_ - 1])) return;
      --size_;
    }
    Insert(d, id);
  }

  // Offers row[j] as the distance of candidate j, for every j in
  // [begin, end). Requires every index offered before to be below `begin`.
  // A later candidate then loses every distance tie, so once the selection
  // is full a candidate is kept iff its distance is strictly below the
  // k-th: one compare per candidate on the brute-scan hot path.
  void OfferRow(const double* row, size_t begin, size_t end) {
    size_t j = begin;
    for (; j < end && size_ < k_; ++j) Insert(row[j], j);
    if (j == end) return;
    double worst = dist_[k_ - 1];
    for (; j < end; ++j) {
      if (row[j] < worst) {
        --size_;
        Insert(row[j], j);
        worst = dist_[k_ - 1];
      }
    }
  }

  // Per-dimension extents of the selected neighbours of `probe`; indices
  // refer to `points`.
  KnnExtents Extents(const Point2* points, const Point2& probe) const {
    KnnExtents e;
    for (size_t s = 0; s < size_; ++s) {
      const Point2& p = points[index_[s]];
      e.dx = std::max(e.dx, std::fabs(p.x - probe.x));
      e.dy = std::max(e.dy, std::fabs(p.y - probe.y));
    }
    return e;
  }

 private:
  static bool Before(double d, size_t id, double other_d, size_t other_id) {
    return d < other_d || (d == other_d && id < other_id);
  }

  // Inserts into the sorted prefix; requires size_ < k_.
  void Insert(double d, size_t id) {
    size_t s = size_;
    for (; s > 0 && Before(d, id, dist_[s - 1], index_[s - 1]); --s) {
      dist_[s] = dist_[s - 1];
      index_[s] = index_[s - 1];
    }
    dist_[s] = d;
    index_[s] = id;
    ++size_;
  }

  size_t k_ = 0;
  size_t size_ = 0;
  std::vector<double> dist_;   // ascending by (distance, index)
  std::vector<size_t> index_;
};

}  // namespace tycos

#endif  // TYCOS_KNN_KNN_SELECTOR_H_
