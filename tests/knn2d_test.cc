// 2-D constrained k-NN through the engine stack: CpnnExecutor2D::ExecuteKnn
// vs. the scan filter's invariants, Knn2DQuery pinned bit-identical to the
// executor through QueryEngine (batch/submit/serial), and the sharded
// engine's 2-D k-NN scatter pinned bit-identical to the executor's answer
// at 1/2/4 shards under both sharding policies.
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query2d.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/query_engine.h"
#include "spatial/filter.h"

namespace pverify {
namespace {

Dataset2D TestDataset2D(size_t count = 240, uint64_t seed = 31) {
  datagen::Synthetic2DConfig config;
  config.count = count;
  config.mean_extent = 30.0;
  config.max_extent = 120.0;
  config.seed = seed;
  return datagen::MakeSynthetic2D(config);
}

Dataset2D ClusteredDataset2D() {
  datagen::Synthetic2DClusteredConfig config;
  config.count = 160;
  config.domain = 10000.0;
  config.num_clusters = 4;
  config.cluster_stddev = 150.0;
  config.mean_extent = 4.0;
  config.max_extent = 12.0;
  config.seed = 51;
  return datagen::MakeSynthetic2DClustered(config);
}

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.2, 0.01};
  return opt;
}

std::shared_ptr<const ShardingPolicy> MakePolicy2D(const std::string& name,
                                                   const Dataset2D& data) {
  if (name == "hash") return std::make_shared<const HashShardingPolicy>();
  return std::make_shared<const RangeShardingPolicy>(
      RangeShardingPolicy::ForDataset2D(data));
}

// Bit-identical, not approximately equal: every path must run the exact
// same arithmetic as CpnnExecutor2D::ExecuteKnn.
void ExpectIdenticalKnn(const CknnAnswer& expected, const QueryResult& got,
                        const std::string& what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_TRUE(got.knn.has_value()) << what;
  EXPECT_EQ(expected.ids, got.knn->ids) << what;
  ASSERT_EQ(expected.bounds.size(), got.knn->bounds.size()) << what;
  for (size_t i = 0; i < expected.bounds.size(); ++i) {
    EXPECT_EQ(expected.bounds[i].lower, got.knn->bounds[i].lower)
        << what << " bound " << i;
    EXPECT_EQ(expected.bounds[i].upper, got.knn->bounds[i].upper)
        << what << " bound " << i;
  }
  EXPECT_EQ(expected.bounds.size(), got.stats.candidates) << what;
}

TEST(Knn2DTest, FilterKByScan2DInvariants) {
  Dataset2D data = TestDataset2D();
  const Point2 q{500.0, 500.0};
  for (int k : {1, 2, 5, 17}) {
    FilterResult filtered = FilterKByScan2D(data, q, k);
    // fmin is the k-th smallest far point: at least k objects lie fully
    // within it, and every candidate's near point does not exceed it.
    size_t within = 0;
    for (const UncertainObject2D& obj : data) {
      if (obj.MaxDist(q) <= filtered.fmin) ++within;
    }
    EXPECT_GE(within, static_cast<size_t>(k)) << "k=" << k;
    EXPECT_GE(filtered.candidates.size(), static_cast<size_t>(k));
    for (uint32_t idx : filtered.candidates) {
      EXPECT_LE(data[idx].MinDist(q), filtered.fmin + kFilterBoundarySlack);
    }
    // k = 1 degenerates to the plain PNN filter.
    if (k == 1) {
      FilterResult pnn = FilterByScan2D(data, q);
      EXPECT_EQ(pnn.fmin, filtered.fmin);
      EXPECT_EQ(pnn.candidates, filtered.candidates);
    }
  }
}

TEST(Knn2DTest, EngineKnn2DBitIdenticalToExecutorBatchSubmitSerial) {
  Dataset2D data = TestDataset2D();
  CpnnExecutor2D sequential(data);
  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);
  const QueryOptions opt = TestOptions();
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(8, 0.0, 1000.0, /*seed=*/13);

  std::vector<QueryRequest> batch;
  for (Point2 p : points) batch.push_back(Knn2DQuery{p, 3, opt});
  std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
  ASSERT_EQ(results.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CknnAnswer expected =
        sequential.ExecuteKnn(points[i], 3, opt.params, opt.integration);
    ExpectIdenticalKnn(expected, results[i],
                       "batch query " + std::to_string(i));
  }

  std::vector<std::future<QueryResult>> futures;
  for (Point2 p : points) {
    futures.push_back(engine.Submit(Knn2DQuery{p, 2, opt}));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    CknnAnswer expected =
        sequential.ExecuteKnn(points[i], 2, opt.params, opt.integration);
    ExpectIdenticalKnn(expected, futures[i].get(),
                       "submit query " + std::to_string(i));
  }

  CknnAnswer expected =
      sequential.ExecuteKnn(points[0], 5, opt.params, opt.integration);
  ExpectIdenticalKnn(expected, engine.Execute(Knn2DQuery{points[0], 5, opt}),
                     "serial execute");
}

TEST(Knn2DTest, ShardedKnn2DBitIdenticalAcrossShardCountsAndPolicies) {
  for (bool clustered : {false, true}) {
    Dataset2D data = clustered ? ClusteredDataset2D() : TestDataset2D();
    const double domain = clustered ? 10000.0 : 1000.0;
    CpnnExecutor2D sequential(data);
    const QueryOptions opt = TestOptions();
    const std::vector<Point2> points =
        datagen::MakeQueryPoints2D(6, 0.0, domain, /*seed=*/7);

    for (size_t shards : {1u, 2u, 4u}) {
      for (std::string policy : {"hash", "range"}) {
        QueryEngine sharded(data, testutil::ShardedOptions(
                                      shards, 2, MakePolicy2D(policy, data)));

        for (int k : {1, 3, 7}) {
          std::vector<QueryRequest> batch;
          for (Point2 p : points) batch.push_back(Knn2DQuery{p, k, opt});
          std::vector<QueryResult> results =
              sharded.ExecuteBatch(std::move(batch));
          for (size_t i = 0; i < points.size(); ++i) {
            CknnAnswer expected = sequential.ExecuteKnn(
                points[i], k, opt.params, opt.integration);
            ExpectIdenticalKnn(
                expected, results[i],
                (clustered ? "clustered " : "uniform ") + policy + " shards " +
                    std::to_string(shards) + " k " + std::to_string(k) +
                    " query " + std::to_string(i));
          }
        }
      }
    }
  }
}

TEST(Knn2DTest, KLargerThanDatasetKeepsEveryObject) {
  Dataset2D data = TestDataset2D(12, /*seed=*/3);
  CpnnExecutor2D sequential(data);
  const QueryOptions opt = TestOptions();
  QueryEngine sharded(data, testutil::ShardedOptions(4, 2));
  const Point2 q{400.0, 600.0};
  CknnAnswer expected =
      sequential.ExecuteKnn(q, 50, opt.params, opt.integration);
  EXPECT_EQ(expected.bounds.size(), data.size());
  ExpectIdenticalKnn(expected, sharded.Execute(Knn2DQuery{q, 50, opt}),
                     "k beyond dataset");
}

TEST(Knn2DTest, Knn2DWithoutDatasetThrows) {
  Dataset data1d;
  data1d.emplace_back(1, MakeUniformPdf(0.0, 1.0));
  QueryEngine engine(data1d, EngineOptions{1});
  EXPECT_THROW(engine.Execute(Knn2DQuery{{0.0, 0.0}, 2, TestOptions()}),
               std::exception);
  QueryEngine sharded(data1d, testutil::ShardedOptions(2, 2));
  EXPECT_THROW(sharded.Execute(Knn2DQuery{{0.0, 0.0}, 2, TestOptions()}),
               std::exception);
}

TEST(Knn2DTest, EmptyDataset2DAnswersEmpty) {
  QueryEngine engine(Dataset2D{}, EngineOptions{1});
  QueryResult result = engine.Execute(Knn2DQuery{{1.0, 2.0}, 3, TestOptions()});
  EXPECT_TRUE(result.ids.empty());
  ASSERT_TRUE(result.knn.has_value());
  EXPECT_TRUE(result.knn->bounds.empty());

  QueryEngine sharded(Dataset2D{}, testutil::ShardedOptions(2, 2));
  QueryResult sharded_result =
      sharded.Execute(Knn2DQuery{{1.0, 2.0}, 3, TestOptions()});
  EXPECT_TRUE(sharded_result.ids.empty());
  ASSERT_TRUE(sharded_result.knn.has_value());
  EXPECT_TRUE(sharded_result.knn->bounds.empty());
}

}  // namespace
}  // namespace pverify
