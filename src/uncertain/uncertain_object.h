// The 1-D uncertain object model (paper §III-A): an identified closed
// interval carrying a pdf.
#ifndef PVERIFY_UNCERTAIN_UNCERTAIN_OBJECT_H_
#define PVERIFY_UNCERTAIN_UNCERTAIN_OBJECT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "uncertain/pdf.h"

namespace pverify {

using ObjectId = int64_t;

/// Minimum possible |x - q| over x in [lo, hi].
inline double IntervalMinDist(double lo, double hi, double q) {
  if (q < lo) return lo - q;
  if (q > hi) return q - hi;
  return 0.0;
}

/// Maximum possible |x - q| over x in [lo, hi].
inline double IntervalMaxDist(double lo, double hi, double q) {
  double a = q - lo;
  double b = hi - q;
  return a > b ? a : b;
}

/// An uncertain 1-D object X_i: the actual value lies in [lo(), hi()] with
/// density pdf(). The uncertainty region is the pdf's support.
class UncertainObject {
 public:
  UncertainObject(ObjectId id, Pdf pdf) : id_(id), pdf_(std::move(pdf)) {}

  ObjectId id() const { return id_; }
  const Pdf& pdf() const { return pdf_; }
  double lo() const { return pdf_.lo(); }
  double hi() const { return pdf_.hi(); }

  /// Minimum possible |X - q| (the near point n_i of Def. 3, for the
  /// distance distribution rooted at q).
  double MinDist(double q) const { return IntervalMinDist(lo(), hi(), q); }

  /// Maximum possible |X - q| (the far point f_i of Def. 3).
  double MaxDist(double q) const { return IntervalMaxDist(lo(), hi(), q); }

 private:
  ObjectId id_;
  Pdf pdf_;
};

/// A dataset is simply an ordered collection of uncertain objects.
using Dataset = std::vector<UncertainObject>;

}  // namespace pverify

#endif  // PVERIFY_UNCERTAIN_UNCERTAIN_OBJECT_H_
