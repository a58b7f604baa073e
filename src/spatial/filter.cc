#include "spatial/filter.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "spatial/bounds.h"

namespace pverify {
namespace {

// See kFilterBoundarySlack in the header for the rationale.
constexpr double kBoundarySlack = kFilterBoundarySlack;

// Payloads of the entries with leaf_min(entry) <= cut + slack, ascending.
template <int Dim, typename LeafMin>
std::vector<uint32_t> SurvivorsOf(const RTree<Dim, uint32_t>& tree,
                                  const std::array<double, Dim>& pt,
                                  double cut, LeafMin leaf_min) {
  std::vector<uint32_t> out =
      tree.WithinDistance(pt, cut + kBoundarySlack, leaf_min);
  std::sort(out.begin(), out.end());
  return out;
}

// Point (k = 1) and k-NN filtering through a PnnFilter / PnnFilter2D:
// f^(k) is the k-th smallest far point (the largest when k exceeds the
// dataset), the candidates its survivors.
template <typename Filter, typename Point>
FilterResult FilterKOf(const Filter& filter, bool empty, Point q, int k) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  FilterResult result;
  if (empty) return result;
  result.fmin = filter.SmallestFarPoints(q, static_cast<size_t>(k)).back();
  result.candidates = filter.Survivors(q, result.fmin);
  return result;
}

}  // namespace

PnnFilter::PnnFilter(const Dataset& dataset) {
  std::vector<RTree<1, uint32_t>::Entry> entries;
  entries.reserve(dataset.size());
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    entries.push_back({MakeInterval(dataset[i].lo(), dataset[i].hi()), i});
  }
  rtree_ = RTree<1, uint32_t>::BulkLoadSTR(std::move(entries));
}

FilterResult PnnFilter::Filter(double q) const { return FilterK(q, 1); }

FilterResult PnnFilter::FilterK(double q, int k) const {
  return FilterKOf(*this, rtree_.empty(), q, k);
}

std::vector<double> PnnFilter::SmallestFarPoints(double q, size_t k) const {
  // UncertainObject::MaxDist on the leaf's copy of the interval: reading
  // the object instead costs a pdf dereference per visited entry, which
  // made BM_RTreeFilter/64000 about 40% slower.
  return rtree_.SmallestFarPoints(
      {q}, k, [q](const RTree<1, uint32_t>::Entry& e) {
        return IntervalMaxDist(e.mbr.lo[0], e.mbr.hi[0], q);
      });
}

std::vector<uint32_t> PnnFilter::Survivors(double q, double cut) const {
  // UncertainObject::MinDist on the leaf's copy of the interval, as in
  // SmallestFarPoints.
  return SurvivorsOf<1>(
      rtree_, {q}, cut, [q](const RTree<1, uint32_t>::Entry& e) {
        return IntervalMinDist(e.mbr.lo[0], e.mbr.hi[0], q);
      });
}

PnnFilter2D::PnnFilter2D(const Dataset2D& dataset) : dataset_(&dataset) {
  std::vector<RTree<2, uint32_t>::Entry> entries;
  entries.reserve(dataset.size());
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    entries.push_back({RegionMbr2D(dataset[i]), i});
  }
  rtree_ = RTree<2, uint32_t>::BulkLoadSTR(std::move(entries));
}

FilterResult PnnFilter2D::Filter(Point2 q) const { return FilterK(q, 1); }

FilterResult PnnFilter2D::FilterK(Point2 q, int k) const {
  return FilterKOf(*this, rtree_.empty(), q, k);
}

std::vector<double> PnnFilter2D::SmallestFarPoints(Point2 q, size_t k) const {
  return rtree_.SmallestFarPoints(
      {q.x, q.y}, k, [this, q](const RTree<2, uint32_t>::Entry& e) {
        return (*dataset_)[e.value].MaxDist(q);
      });
}

std::vector<uint32_t> PnnFilter2D::Survivors(Point2 q, double cut) const {
  return SurvivorsOf<2>(
      rtree_, {q.x, q.y}, cut, [this, q](const RTree<2, uint32_t>::Entry& e) {
        return (*dataset_)[e.value].MinDist(q);
      });
}

FilterResult FilterByScan(const Dataset& dataset, double q) {
  FilterResult result;
  if (dataset.empty()) return result;
  double fmin = std::numeric_limits<double>::infinity();
  for (const UncertainObject& obj : dataset) {
    fmin = std::min(fmin, obj.MaxDist(q));
  }
  result.fmin = fmin;
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    if (dataset[i].MinDist(q) <= fmin + kBoundarySlack) {
      result.candidates.push_back(i);
    }
  }
  return result;
}

FilterResult FilterKByScan(const Dataset& dataset, double q, int k) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  FilterResult result;
  if (dataset.empty()) return result;
  std::vector<double> fars;
  fars.reserve(dataset.size());
  for (const UncertainObject& obj : dataset) fars.push_back(obj.MaxDist(q));
  size_t kth = std::min(dataset.size(), static_cast<size_t>(k)) - 1;
  std::nth_element(fars.begin(), fars.begin() + kth, fars.end());
  result.fmin = fars[kth];
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    if (dataset[i].MinDist(q) <= result.fmin + kBoundarySlack) {
      result.candidates.push_back(i);
    }
  }
  return result;
}

FilterResult FilterKByScan2D(const Dataset2D& dataset, Point2 q, int k) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  FilterResult result;
  if (dataset.empty()) return result;
  std::vector<double> fars;
  fars.reserve(dataset.size());
  for (const UncertainObject2D& obj : dataset) fars.push_back(obj.MaxDist(q));
  size_t kth = std::min(dataset.size(), static_cast<size_t>(k)) - 1;
  std::nth_element(fars.begin(), fars.begin() + kth, fars.end());
  result.fmin = fars[kth];
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    if (dataset[i].MinDist(q) <= result.fmin + kBoundarySlack) {
      result.candidates.push_back(i);
    }
  }
  return result;
}

FilterResult FilterByScan2D(const Dataset2D& dataset, Point2 q) {
  FilterResult result;
  if (dataset.empty()) return result;
  double fmin = std::numeric_limits<double>::infinity();
  for (const UncertainObject2D& obj : dataset) {
    fmin = std::min(fmin, obj.MaxDist(q));
  }
  result.fmin = fmin;
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    if (dataset[i].MinDist(q) <= fmin + kBoundarySlack) {
      result.candidates.push_back(i);
    }
  }
  return result;
}

}  // namespace pverify
