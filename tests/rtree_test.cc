#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "spatial/mbr.h"

namespace pverify {
namespace {

TEST(MbrTest, Metrics1D) {
  Mbr<1> m = MakeInterval(2.0, 5.0);
  EXPECT_DOUBLE_EQ(m.MinDist({0.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.MinDist({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.MinDist({9.0}), 4.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({0.0}), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({3.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({4.0}), 2.0);
  // In 1-D MINMAXDIST is the distance to the nearer face... from outside it
  // is |q − nearer endpoint|.
  EXPECT_DOUBLE_EQ(m.MinMaxDist({0.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.MinMaxDist({9.0}), 4.0);
}

TEST(MbrTest, Metrics2D) {
  Mbr<2> m = MakeBox(0.0, 0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(m.MinDist({{-3.0, 0.0}}), 3.0);
  EXPECT_DOUBLE_EQ(m.MinDist({{2.0, 1.0}}), 0.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({{0.0, 0.0}}), std::hypot(4.0, 2.0));
  // MINMAXDIST <= MAXDIST always; >= MINDIST always.
  for (double x : {-2.0, 0.0, 2.0, 5.0}) {
    for (double y : {-1.0, 1.0, 3.0}) {
      std::array<double, 2> q = {x, y};
      EXPECT_LE(m.MinMaxDist(q), m.MaxDist(q) + 1e-12);
      EXPECT_GE(m.MinMaxDist(q), m.MinDist(q) - 1e-12);
    }
  }
}

TEST(MbrTest, ExpandAndVolume) {
  Mbr<2> m = Mbr<2>::Empty();
  EXPECT_TRUE(m.IsEmpty());
  m.Expand(MakeBox(0, 0, 1, 1));
  m.Expand(MakeBox(2, -1, 3, 0.5));
  EXPECT_DOUBLE_EQ(m.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(m.hi[0], 3.0);
  EXPECT_DOUBLE_EQ(m.lo[1], -1.0);
  EXPECT_DOUBLE_EQ(m.Volume(), 3.0 * 2.0);
}

std::vector<RTree<1, int>::Entry> RandomIntervals(int n, Rng& rng) {
  std::vector<RTree<1, int>::Entry> entries;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 1000.0);
    double hi = lo + rng.Uniform(0.01, 20.0);
    entries.push_back({MakeInterval(lo, hi), i});
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  RTree<1, int> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(tree.SmallestFarPoints({5.0}, 1, [](const auto& e) {
                    return e.mbr.MaxDist({5.0});
                  }).empty());
  EXPECT_TRUE(tree.WithinDistance({5.0}, 10.0).empty());
}

TEST(RTreeTest, BulkLoadMaintainsInvariants) {
  Rng rng(2);
  auto entries = RandomIntervals(2000, rng);
  auto tree = RTree<1, int>::BulkLoadSTR(entries);
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_GE(tree.Height(), 2);
  // STR packs nodes full: expect near-minimal node count.
  EXPECT_LE(tree.NodeCount(), 2000u / 16 + 16);
}

class RTreeQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeQueryTest, RangeQueryMatchesBruteForce1D) {
  Rng rng(GetParam());
  auto entries = RandomIntervals(300, rng);
  auto tree = RTree<1, int>::BulkLoadSTR(entries);
  for (int t = 0; t < 20; ++t) {
    double lo = rng.Uniform(-50.0, 1050.0);
    double hi = lo + rng.Uniform(0.0, 100.0);
    Mbr<1> region = MakeInterval(lo, hi);
    std::vector<int> got = tree.CollectIntersecting(region);
    std::set<int> expect;
    for (const auto& e : entries) {
      if (e.mbr.Intersects(region)) expect.insert(e.value);
    }
    EXPECT_EQ(std::set<int>(got.begin(), got.end()), expect);
  }
}

TEST_P(RTreeQueryTest, SmallestFarPointsMatchBruteForce) {
  Rng rng(GetParam() + 100);
  auto entries = RandomIntervals(400, rng);
  auto tree = RTree<1, int>::BulkLoadSTR(entries);
  for (int t = 0; t < 25; ++t) {
    std::array<double, 1> q = {rng.Uniform(-100.0, 1100.0)};
    auto far = [&q](const RTree<1, int>::Entry& e) { return e.mbr.MaxDist(q); };
    std::vector<double> expect;
    for (const auto& e : entries) expect.push_back(far(e));
    std::sort(expect.begin(), expect.end());
    for (size_t k : {size_t{1}, size_t{7}, entries.size() + 1}) {
      std::vector<double> want(expect.begin(),
                               expect.begin() + std::min(k, expect.size()));
      EXPECT_EQ(tree.SmallestFarPoints(q, k, far), want) << "k=" << k;
    }
  }
}

TEST_P(RTreeQueryTest, WithinDistanceMatchesBruteForce) {
  Rng rng(GetParam() + 200);
  auto entries = RandomIntervals(400, rng);
  auto tree = RTree<1, int>::BulkLoadSTR(entries);
  for (int t = 0; t < 15; ++t) {
    std::array<double, 1> q = {rng.Uniform(0.0, 1000.0)};
    double radius = rng.Uniform(0.0, 60.0);
    std::vector<int> got = tree.WithinDistance(q, radius);
    std::set<int> expect;
    for (const auto& e : entries) {
      if (e.mbr.MinDist(q) <= radius) expect.insert(e.value);
    }
    EXPECT_EQ(std::set<int>(got.begin(), got.end()), expect);
  }
}

TEST_P(RTreeQueryTest, NearestByMinDistMatchesBruteForce) {
  Rng rng(GetParam() + 300);
  auto entries = RandomIntervals(200, rng);
  auto tree = RTree<1, int>::BulkLoadSTR(entries);
  std::array<double, 1> q = {rng.Uniform(0.0, 1000.0)};
  const size_t k = 10;
  std::vector<int> got = tree.NearestByMinDist(q, k);
  ASSERT_EQ(got.size(), k);
  // Distances must be non-decreasing and match the brute-force k-th value.
  std::vector<double> dists;
  for (const auto& e : entries) dists.push_back(e.mbr.MinDist(q));
  std::sort(dists.begin(), dists.end());
  double prev = -1.0;
  for (size_t i = 0; i < k; ++i) {
    double d = entries[static_cast<size_t>(got[i])].mbr.MinDist(q);
    EXPECT_GE(d, prev - 1e-12);
    EXPECT_NEAR(d, dists[i], 1e-9);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeQueryTest, ::testing::Range(0, 8));

TEST(RTree2DTest, QueriesMatchBruteForce) {
  Rng rng(77);
  std::vector<RTree<2, int>::Entry> entries;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Uniform(0.0, 500.0);
    double y = rng.Uniform(0.0, 500.0);
    entries.push_back(
        {MakeBox(x, y, x + rng.Uniform(0.1, 20.0), y + rng.Uniform(0.1, 20.0)),
         i});
  }
  auto tree = RTree<2, int>::BulkLoadSTR(entries);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int t = 0; t < 20; ++t) {
    std::array<double, 2> q = {rng.Uniform(0.0, 500.0),
                               rng.Uniform(0.0, 500.0)};
    double expect_fmin = std::numeric_limits<double>::infinity();
    for (const auto& e : entries) {
      expect_fmin = std::min(expect_fmin, e.mbr.MaxDist(q));
    }
    EXPECT_EQ(tree.SmallestFarPoints(q, 1,
                                     [&q](const RTree<2, int>::Entry& e) {
                                       return e.mbr.MaxDist(q);
                                     }),
              std::vector<double>{expect_fmin});

    double radius = rng.Uniform(5.0, 80.0);
    std::set<int> expect;
    for (const auto& e : entries) {
      if (e.mbr.MinDist(q) <= radius) expect.insert(e.value);
    }
    auto got = tree.WithinDistance(q, radius);
    EXPECT_EQ(std::set<int>(got.begin(), got.end()), expect);
  }
}

TEST(RTreeTest, DuplicateMbrsSupported) {
  std::vector<RTree<1, int>::Entry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({MakeInterval(1.0, 2.0), i});
  }
  auto tree = RTree<1, int>::BulkLoadSTR(std::move(entries));
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.CollectIntersecting(MakeInterval(1.5, 1.6)).size(), 100u);
}

}  // namespace
}  // namespace pverify
