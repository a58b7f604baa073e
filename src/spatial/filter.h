// The filtering phase of the C-PNN framework (paper Fig. 3, first stage;
// technique of [8]).
//
// Objects whose minimum distance from q exceeds f_min — the smallest maximum
// distance of any object — can never be the nearest neighbor and are pruned
// with zero I/O over their pdfs. The survivors form the candidate set that
// verification operates on.
#ifndef PVERIFY_SPATIAL_FILTER_H_
#define PVERIFY_SPATIAL_FILTER_H_

#include <cstdint>
#include <vector>

#include "spatial/rtree.h"
#include "uncertain/distance2d.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// Numerical slack used when comparing MINDIST against f_min: f_min is a
/// distance to a real object, so boundary objects (n_i == f_min) stay in the
/// candidate set, matching the zero-probability-but-unpruned convention.
/// Exposed so scatter/gather engines can reproduce the filter's cut exactly.
inline constexpr double kFilterBoundarySlack = 1e-12;

/// Result of the filtering phase.
struct FilterResult {
  /// f_min: minimum over all objects of MAXDIST(q, object).
  double fmin = 0.0;
  /// Indices (into the dataset) of objects with MINDIST <= f_min, i.e. the
  /// candidate set C.
  std::vector<uint32_t> candidates;
};

/// Index over a 1-D dataset for repeated PNN filtering.
class PnnFilter {
 public:
  /// Builds an STR-bulk-loaded R-tree over the objects' intervals.
  explicit PnnFilter(const Dataset& dataset);

  /// Runs the filtering phase for query point q: FilterK(q, 1), i.e.
  /// FilterByScan's result found through the R-tree.
  FilterResult Filter(double q) const;

  /// k-NN filtering (the C-PkNN extension): fmin becomes the k-th smallest
  /// far point (the largest when k exceeds the dataset) and candidates are
  /// the objects whose near point does not exceed it, ascending — exactly
  /// FilterKByScan's result, found through the R-tree.
  FilterResult FilterK(double q, int k) const;

  /// The min(k, |dataset|) smallest far points (UncertainObject::MaxDist)
  /// from q, ascending.
  std::vector<double> SmallestFarPoints(double q, size_t k) const;

  /// Indices of the objects whose UncertainObject::MinDist from q is at
  /// most cut + kFilterBoundarySlack, ascending.
  std::vector<uint32_t> Survivors(double q, double cut) const;

  const RTree<1, uint32_t>& rtree() const { return rtree_; }

 private:
  RTree<1, uint32_t> rtree_;
};

/// Index over a 2-D dataset for repeated PNN filtering.
class PnnFilter2D {
 public:
  explicit PnnFilter2D(const Dataset2D& dataset);

  /// FilterK(q, 1): FilterByScan2D's result, found through the R-tree.
  FilterResult Filter(Point2 q) const;

  /// 2-D k-NN filtering over exact region distances
  /// (UncertainObject2D::MinDist/MaxDist): FilterKByScan2D's result,
  /// found through the R-tree.
  FilterResult FilterK(Point2 q, int k) const;

  /// The min(k, |dataset|) smallest exact far points from q, ascending.
  std::vector<double> SmallestFarPoints(Point2 q, size_t k) const;

  /// Indices of the objects whose exact MinDist from q is at most
  /// cut + kFilterBoundarySlack, ascending.
  std::vector<uint32_t> Survivors(Point2 q, double cut) const;

 private:
  RTree<2, uint32_t> rtree_;
  const Dataset2D* dataset_;  // not owned
};

/// Reference implementation: linear scan over the dataset. Used by tests to
/// validate the R-tree-based filter and by benches as an ablation baseline.
FilterResult FilterByScan(const Dataset& dataset, double q);
FilterResult FilterByScan2D(const Dataset2D& dataset, Point2 q);

/// k-NN filtering by scan: fmin becomes the k-th smallest far point and
/// candidates are the objects whose near point does not exceed it. The
/// reference for PnnFilter::FilterK (tests, benches).
FilterResult FilterKByScan(const Dataset& dataset, double q, int k);

/// 2-D analogue: the same k-th-far-point rule over exact region distances
/// (UncertainObject2D::MinDist/MaxDist). The reference for
/// PnnFilter2D::FilterK.
FilterResult FilterKByScan2D(const Dataset2D& dataset, Point2 q, int k);

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_FILTER_H_
