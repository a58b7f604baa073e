#include "spatial/filter.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"

namespace pverify {
namespace {

Dataset SmallDataset() {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(0.0, 2.0));
  data.emplace_back(1, MakeUniformPdf(1.0, 3.0));
  data.emplace_back(2, MakeUniformPdf(10.0, 12.0));
  data.emplace_back(3, MakeUniformPdf(4.0, 5.0));
  return data;
}

TEST(FilterTest, FminIsSmallestFarPoint) {
  Dataset data = SmallDataset();
  PnnFilter filter(data);
  FilterResult r = filter.Filter(1.5);
  // Far points from q=1.5: obj0 max(1.5,0.5)=1.5; obj1 max(0.5,1.5)=1.5;
  // obj2 10.5; obj3 3.5. f_min = 1.5.
  EXPECT_NEAR(r.fmin, 1.5, 1e-12);
  // Candidates: mindist <= 1.5 → obj0 (0), obj1 (0), obj3 (2.5 > 1.5 no),
  // obj2 (8.5 no).
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0, 1}));
}

TEST(FilterTest, DistantObjectPruned) {
  Dataset data = SmallDataset();
  PnnFilter filter(data);
  FilterResult r = filter.Filter(11.0);
  // q=11: obj2 far = max(1,1) = 1 → fmin=1; only obj2 within distance 1.
  EXPECT_NEAR(r.fmin, 1.0, 1e-12);
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{2}));
}

TEST(FilterTest, MatchesScanOnSyntheticData) {
  Dataset data = datagen::MakeUniformScatter(3000, 1000.0, 2.0, 5);
  PnnFilter filter(data);
  Rng rng(17);
  for (int t = 0; t < 30; ++t) {
    double q = rng.Uniform(-50.0, 1050.0);
    FilterResult via_tree = filter.Filter(q);
    FilterResult via_scan = FilterByScan(data, q);
    EXPECT_NEAR(via_tree.fmin, via_scan.fmin, 1e-9) << "q=" << q;
    EXPECT_EQ(std::set<uint32_t>(via_tree.candidates.begin(),
                                 via_tree.candidates.end()),
              std::set<uint32_t>(via_scan.candidates.begin(),
                                 via_scan.candidates.end()))
        << "q=" << q;
  }
}

TEST(FilterTest, CandidateSetNeverEmpty) {
  // The object realizing f_min always survives its own bound.
  Dataset data = datagen::MakeUniformScatter(500, 100.0, 1.0, 3);
  PnnFilter filter(data);
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    FilterResult r = filter.Filter(rng.Uniform(0.0, 100.0));
    EXPECT_GE(r.candidates.size(), 1u);
  }
}

TEST(FilterTest, SingleObjectDataset) {
  Dataset data;
  data.emplace_back(42, MakeUniformPdf(5.0, 7.0));
  PnnFilter filter(data);
  FilterResult r = filter.Filter(0.0);
  EXPECT_NEAR(r.fmin, 7.0, 1e-12);
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0}));
}

TEST(Filter2DTest, MatchesScan) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 800, .seed = 9});
  PnnFilter2D filter(data);
  Rng rng(31);
  for (int t = 0; t < 15; ++t) {
    Point2 q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    FilterResult via_tree = filter.Filter(q);
    FilterResult via_scan = FilterByScan2D(data, q);
    EXPECT_NEAR(via_tree.fmin, via_scan.fmin, 1e-9);
    EXPECT_EQ(std::set<uint32_t>(via_tree.candidates.begin(),
                                 via_tree.candidates.end()),
              std::set<uint32_t>(via_scan.candidates.begin(),
                                 via_scan.candidates.end()));
  }
}

TEST(Filter2DTest, CircleFarPointTighterThanMbr) {
  // A large circle's MBR corner distance exceeds its true far point; the 2-D
  // filter must use the exact region distance.
  Dataset2D data;
  data.emplace_back(0, Circle2{0.0, 0.0, 10.0});
  data.emplace_back(1, Rect2{30.0, 30.0, 31.0, 31.0});
  PnnFilter2D filter(data);
  FilterResult r = filter.Filter({0.0, 0.0});
  EXPECT_NEAR(r.fmin, 10.0, 1e-9);  // not 10·√2
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0}));
}

// --- Point and k-NN filtering through the R-tree vs. the reference scans --

std::vector<int> KSweep(size_t n) {
  return {1, 2, 4, 17, static_cast<int>(n) - 1, static_cast<int>(n),
          static_cast<int>(n) + 5};
}

// Bit-exact: the same (k-th) far point and the same ascending candidates.
void ExpectSameKFilter(const FilterResult& tree, const FilterResult& scan,
                       const std::string& what) {
  EXPECT_EQ(tree.fmin, scan.fmin) << what;
  EXPECT_EQ(tree.candidates, scan.candidates) << what;
}

void CheckKFilter1D(const Dataset& data, const std::vector<double>& qs) {
  PnnFilter filter(data);
  for (double q : qs) {
    ExpectSameKFilter(filter.Filter(q), FilterByScan(data, q),
                      "point q=" + std::to_string(q));
    for (int k : KSweep(data.size())) {
      if (k < 1) continue;
      ExpectSameKFilter(filter.FilterK(q, k), FilterKByScan(data, q, k),
                        "q=" + std::to_string(q) + " k=" + std::to_string(k));
    }
  }
}

std::vector<double> RandomPoints(size_t count, double lo, double hi,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<double> qs;
  for (size_t i = 0; i < count; ++i) qs.push_back(rng.Uniform(lo, hi));
  return qs;
}

TEST(KFilterTest, TreeMatchesScanOnRandomQueries) {
  Dataset data = datagen::MakeUniformScatter(3000, 1000.0, 2.0, 5);
  CheckKFilter1D(data, RandomPoints(12, 0.0, 1000.0, 41));
}

TEST(KFilterTest, TreeMatchesScanOutsideTheDomain) {
  Dataset data = datagen::MakeUniformScatter(3000, 1000.0, 2.0, 7);
  CheckKFilter1D(data, {-5000.0, -1.0, 1000.5, 1e6});
}

TEST(KFilterTest, TreeMatchesScanWithEqualFarTies) {
  // Intervals centred on q = 50 have pairwise-equal far points; duplicates
  // and mirrored copies add more ties at every rank.
  Dataset data;
  ObjectId id = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (int w = 1; w <= 20; ++w) {
      data.emplace_back(id++, MakeUniformPdf(50.0 - w, 50.0 + w));
      data.emplace_back(id++, MakeUniformPdf(50.0 - w, 50.0 + 0.5 * w));
      data.emplace_back(id++, MakeUniformPdf(50.0 - 0.5 * w, 50.0 + w));
    }
  }
  CheckKFilter1D(data, {50.0, 49.5, 0.0, 120.0});
}

TEST(KFilterTest, TreeMatchesScanOnBoundaryObjects) {
  // Abutting unit and double-width intervals on an integer grid: at grid
  // and half-grid q many near points equal the (k-th) far point exactly,
  // so the candidate sets hinge on the boundary comparison.
  Dataset data;
  ObjectId id = 0;
  for (int i = 0; i < 30; ++i) {
    data.emplace_back(id++, MakeUniformPdf(i, i + 1.0));
    data.emplace_back(id++, MakeUniformPdf(i, i + 2.0));
  }
  CheckKFilter1D(data, {5.0, 5.5, 12.0, 0.0, -2.0, 32.0});
}

TEST(KFilterTest, TreeMatchesScanOnTinyDatasets) {
  CheckKFilter1D(SmallDataset(), {-3.0, 1.5, 4.5, 11.0, 30.0});
  Dataset single;
  single.emplace_back(42, MakeUniformPdf(5.0, 7.0));
  CheckKFilter1D(single, {0.0, 6.0, 9.0});
}

TEST(KFilterTest, EmptyDatasetAndInvalidK) {
  Dataset empty;
  PnnFilter filter(empty);
  FilterResult r = filter.FilterK(3.0, 4);
  EXPECT_TRUE(r.candidates.empty());
  Dataset data = SmallDataset();
  PnnFilter nonempty(data);
  EXPECT_THROW(nonempty.FilterK(1.0, 0), std::logic_error);
}

void CheckKFilter2D(const Dataset2D& data, const std::vector<Point2>& qs) {
  PnnFilter2D filter(data);
  for (Point2 q : qs) {
    ExpectSameKFilter(filter.Filter(q), FilterByScan2D(data, q),
                      "point q=(" + std::to_string(q.x) + "," +
                          std::to_string(q.y) + ")");
    for (int k : KSweep(data.size())) {
      if (k < 1) continue;
      ExpectSameKFilter(filter.FilterK(q, k), FilterKByScan2D(data, q, k),
                        "q=(" + std::to_string(q.x) + "," +
                            std::to_string(q.y) + ") k=" + std::to_string(k));
    }
  }
}

TEST(KFilter2DTest, TreeMatchesScanOnRandomQueries) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 800, .seed = 9});
  Rng rng(43);
  std::vector<Point2> qs;
  for (int t = 0; t < 8; ++t) {
    qs.push_back({rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
  }
  CheckKFilter2D(data, qs);
}

TEST(KFilter2DTest, TreeMatchesScanOutsideTheDomain) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 800, .seed = 11});
  CheckKFilter2D(data, {{-500.0, -500.0}, {1500.0, 300.0}, {500.0, 2e5}});
}

TEST(KFilter2DTest, TreeMatchesScanOnBoundaryObjects) {
  // Abutting unit squares: at a cell corner or centre, neighbouring cells'
  // near points equal far points of others exactly.
  Dataset2D data;
  ObjectId id = 0;
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      data.emplace_back(id++, Rect2{1.0 * x, 1.0 * y, x + 1.0, y + 1.0});
    }
  }
  CheckKFilter2D(data, {{5.0, 5.0}, {5.5, 5.5}, {0.0, 6.0}, {-3.0, 4.0}});
}

TEST(KFilter2DTest, TreeMatchesScanWithEqualFarTies) {
  // Concentric disks and squares around the query share far points, and
  // each region appears twice.
  Dataset2D data;
  ObjectId id = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (int r = 1; r <= 15; ++r) {
      data.emplace_back(id++, Circle2{100.0, 100.0, 1.0 * r});
      data.emplace_back(id++, Rect2{100.0 - r, 100.0 - r, 100.0 + r,
                                    100.0 + r});
      data.emplace_back(id++, Circle2{100.0 + r, 100.0, 0.5 * r});
    }
  }
  CheckKFilter2D(data, {{100.0, 100.0}, {103.0, 97.0}, {-40.0, 250.0}});
}

}  // namespace
}  // namespace pverify
