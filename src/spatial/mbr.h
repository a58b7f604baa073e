// Minimum bounding rectangles in D dimensions with the point-to-MBR metrics
// needed by probabilistic NN filtering: MINDIST, MAXDIST and the classic
// MINMAXDIST bound of Roussopoulos et al., which guarantees that some object
// inside the MBR lies within that distance of the query point.
#ifndef PVERIFY_SPATIAL_MBR_H_
#define PVERIFY_SPATIAL_MBR_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace pverify {

template <int Dim>
struct Mbr {
  std::array<double, Dim> lo;
  std::array<double, Dim> hi;

  static Mbr Empty() {
    Mbr m;
    m.lo.fill(std::numeric_limits<double>::infinity());
    m.hi.fill(-std::numeric_limits<double>::infinity());
    return m;
  }

  bool IsEmpty() const { return lo[0] > hi[0]; }

  void Expand(const Mbr& other) {
    for (int d = 0; d < Dim; ++d) {
      lo[d] = std::min(lo[d], other.lo[d]);
      hi[d] = std::max(hi[d], other.hi[d]);
    }
  }

  /// Hyper-volume (length in 1-D, area in 2-D).
  double Volume() const {
    double v = 1.0;
    for (int d = 0; d < Dim; ++d) v *= std::max(0.0, hi[d] - lo[d]);
    return v;
  }

  bool Intersects(const Mbr& other) const {
    for (int d = 0; d < Dim; ++d) {
      if (other.hi[d] < lo[d] || other.lo[d] > hi[d]) return false;
    }
    return true;
  }

  bool Contains(const Mbr& other) const {
    for (int d = 0; d < Dim; ++d) {
      if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// MINDIST: smallest distance from q to any point of the MBR.
  double MinDist(const std::array<double, Dim>& q) const {
    double s = 0.0;
    for (int d = 0; d < Dim; ++d) {
      double diff = std::max({lo[d] - q[d], 0.0, q[d] - hi[d]});
      s += diff * diff;
    }
    return std::sqrt(s);
  }

  /// MAXDIST: largest distance from q to any point of the MBR.
  double MaxDist(const std::array<double, Dim>& q) const {
    double s = 0.0;
    for (int d = 0; d < Dim; ++d) {
      double diff = std::max(std::abs(q[d] - lo[d]), std::abs(q[d] - hi[d]));
      s += diff * diff;
    }
    return std::sqrt(s);
  }

  /// MINMAXDIST: an upper bound on the distance to the nearest object stored
  /// inside this MBR (assuming MBR faces touch objects). For each dimension
  /// k, take the nearer face in k and the farther corner in every other
  /// dimension; the minimum over k is the bound.
  double MinMaxDist(const std::array<double, Dim>& q) const {
    double far_sq_total = 0.0;
    std::array<double, Dim> far_sq;
    for (int d = 0; d < Dim; ++d) {
      double mid = 0.5 * (lo[d] + hi[d]);
      double rM = (q[d] >= mid) ? lo[d] : hi[d];  // farther face
      far_sq[d] = (q[d] - rM) * (q[d] - rM);
      far_sq_total += far_sq[d];
    }
    double best = std::numeric_limits<double>::infinity();
    for (int k = 0; k < Dim; ++k) {
      double mid = 0.5 * (lo[k] + hi[k]);
      double rm = (q[k] <= mid) ? lo[k] : hi[k];  // nearer face
      double s = far_sq_total - far_sq[k] + (q[k] - rm) * (q[k] - rm);
      best = std::min(best, s);
    }
    return std::sqrt(best);
  }
};

/// r plus a margin covering the last-bits disagreement between the MBR
/// metrics above and an object's exact region distances (same geometry,
/// different operation order: hypot vs. sqrt, center distance ± radius).
/// Where an MBR distance bounds exact ones, comparing against the widened
/// value keeps every object the exact comparison would keep.
inline double WidenForRounding(double r) {
  return r + 1e-9 * (1.0 + std::abs(r));
}

/// 1-D MBR from an interval.
inline Mbr<1> MakeInterval(double lo, double hi) {
  Mbr<1> m;
  m.lo[0] = lo;
  m.hi[0] = hi;
  return m;
}

/// 2-D MBR from corner coordinates.
inline Mbr<2> MakeBox(double x1, double y1, double x2, double y2) {
  Mbr<2> m;
  m.lo = {x1, y1};
  m.hi = {x2, y2};
  return m;
}

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_MBR_H_
