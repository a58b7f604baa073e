// Scalar-vs-SIMD kernel equivalence: the vectorized verifier kernels
// (PVERIFY_SIMD) must classify every candidate identically to the scalar
// reference and produce probabilities within a tight ULP budget — the only
// permitted divergence is `omp simd` reduction reassociation in the Eq. 4
// bound refresh. Both code paths are always compiled (the runtime flag
// selects between them), so this suite is meaningful in every build: in a
// PVERIFY_SIMD=OFF build it checks the restructured branchless kernels
// against the reference scalar loops; in an ON build it additionally
// covers real vector execution.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/simd.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "ulp_testutil.h"

namespace pverify {
namespace {

constexpr uint64_t kUlpBudget = 64;

/// Restores the runtime kernel-selection flag on scope exit so a failing
/// assertion cannot leak a flipped flag into later tests.
class SimdFlagGuard {
 public:
  SimdFlagGuard() : saved_(SimdKernelsEnabled()) {}
  ~SimdFlagGuard() { SetSimdKernelsEnabled(saved_); }

 private:
  bool saved_;
};

/// Overlapping intervals around the origin so candidate sets stay large
/// and every verifier has work to do.
Dataset MakeOverlappingDataset(size_t n, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 10.0);
    data.emplace_back(static_cast<ObjectId>(i),
                      MakeUniformPdf(lo, lo + rng.Uniform(30.0, 60.0)));
  }
  return data;
}

// Core level: the verifier chain alone (subregion table, RS → L-SR → U-SR
// with classification) must label identically and bound within budget.
TEST(SimdEquivalenceTest, VerifierChainMatchesScalarReference) {
  SimdFlagGuard guard;
  for (uint64_t seed : {1u, 7u, 23u}) {
    for (size_t n : {16u, 96u, 256u}) {
      Dataset data = MakeOverlappingDataset(n, seed);
      std::vector<uint32_t> idx(n);
      for (uint32_t i = 0; i < n; ++i) idx[i] = i;
      const CandidateSet base = CandidateSet::Build1D(data, idx, 0.0);

      CandidateSet scalar_cands = base;
      SetSimdKernelsEnabled(false);
      VerificationFramework scalar_fw(&scalar_cands, CpnnParams{0.3, 0.01});
      scalar_fw.RunDefault();

      CandidateSet simd_cands = base;
      SetSimdKernelsEnabled(true);
      VerificationFramework simd_fw(&simd_cands, CpnnParams{0.3, 0.01});
      simd_fw.RunDefault();

      ASSERT_EQ(scalar_cands.size(), simd_cands.size());
      for (size_t i = 0; i < scalar_cands.size(); ++i) {
        EXPECT_EQ(scalar_cands[i].label, simd_cands[i].label)
            << "seed " << seed << " n " << n << " candidate " << i;
        EXPECT_ULP_NEAR(scalar_cands[i].bound.lower,
                        simd_cands[i].bound.lower, kUlpBudget);
        EXPECT_ULP_NEAR(scalar_cands[i].bound.upper,
                        simd_cands[i].bound.upper, kUlpBudget);
      }
    }
  }
}

/// Runs one batch through the engine with the given kernel flavor.
std::vector<QueryResult> RunBatch(Engine& engine,
                                  const std::vector<double>& points,
                                  const QueryOptions& options, bool simd) {
  SetSimdKernelsEnabled(simd);
  std::vector<QueryRequest> requests;
  requests.reserve(points.size());
  for (double q : points) requests.push_back(PointQuery{q, options});
  return engine.ExecuteBatch(std::move(requests));
}

void ExpectEquivalent(const std::vector<QueryResult>& scalar,
                      const std::vector<QueryResult>& simd,
                      const char* engine_name, Strategy strategy) {
  ASSERT_EQ(scalar.size(), simd.size());
  for (size_t q = 0; q < scalar.size(); ++q) {
    SCOPED_TRACE(testing::Message()
                 << engine_name << " strategy " << ToString(strategy)
                 << " query " << q);
    // Identical answer sets: classification must never differ.
    EXPECT_EQ(scalar[q].ids, simd[q].ids);
    ASSERT_EQ(scalar[q].candidate_probabilities.size(),
              simd[q].candidate_probabilities.size());
    for (size_t c = 0; c < scalar[q].candidate_probabilities.size(); ++c) {
      const AnswerEntry& a = scalar[q].candidate_probabilities[c];
      const AnswerEntry& b = simd[q].candidate_probabilities[c];
      EXPECT_EQ(a.id, b.id);
      EXPECT_ULP_NEAR(a.bound.lower, b.bound.lower, kUlpBudget);
      EXPECT_ULP_NEAR(a.bound.upper, b.bound.upper, kUlpBudget);
    }
  }
}

// Engine level, the property the ISSUE pins: identical candidate
// classifications and probabilities within the ULP budget across
// randomized workloads, all strategies, both engines.
TEST(SimdEquivalenceTest, AllStrategiesBothEnginesMatchScalarReference) {
  SimdFlagGuard guard;
  Dataset dataset = datagen::MakeSynthetic([] {
    datagen::SyntheticConfig config;
    config.count = 2500;
    config.seed = 31;
    return config;
  }());
  // A uniform spread plus a Zipf hot-spot workload: repeated probes of the
  // same hot region exercise identical candidate sets through both kernel
  // flavors.
  std::vector<double> points =
      datagen::MakeQueryPoints(6, 0.0, 10000.0, 41);
  datagen::ZipfConfig zipf;
  zipf.num_hotspots = 4;
  for (double p : datagen::MakeQueryPointsZipf(6, 0.0, 10000.0, zipf, 43)) {
    points.push_back(p);
  }

  QueryEngine flat(dataset, [] {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }());
  QueryEngine sharded(dataset, [] {
    EngineOptions options;
    options.num_shards = 3;
    options.num_threads = 2;
    return options;
  }());

  for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                            Strategy::kVR, Strategy::kMonteCarlo}) {
    QueryOptions options;
    options.params = {0.25, 0.01};
    options.strategy = strategy;
    options.report_probabilities = true;

    ExpectEquivalent(RunBatch(flat, points, options, false),
                     RunBatch(flat, points, options, true), "QueryEngine",
                     strategy);
    ExpectEquivalent(RunBatch(sharded, points, options, false),
                     RunBatch(sharded, points, options, true),
                     "3-shard QueryEngine", strategy);
  }
}

/// Runs one k-NN batch through the engine with the given kernel flavor.
std::vector<QueryResult> RunKnnBatch(Engine& engine,
                                     const std::vector<double>& points, int k,
                                     const QueryOptions& options, bool simd) {
  SetSimdKernelsEnabled(simd);
  std::vector<QueryRequest> requests;
  requests.reserve(points.size());
  for (double q : points) requests.push_back(KnnQuery{q, k, options});
  return engine.ExecuteBatch(std::move(requests));
}

// k-NN coverage for the batched Poisson-binomial gather (knn.cc): both
// engines, both kernel flavors, same answers within the ULP budget.
TEST(SimdEquivalenceTest, KnnQueriesBothEnginesMatchScalarReference) {
  SimdFlagGuard guard;
  Dataset dataset = datagen::MakeSynthetic([] {
    datagen::SyntheticConfig config;
    config.count = 1200;
    config.seed = 57;
    return config;
  }());
  const std::vector<double> points =
      datagen::MakeQueryPoints(8, 0.0, 10000.0, 59);

  QueryEngine flat(dataset, [] {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }());
  QueryEngine sharded(dataset, [] {
    EngineOptions options;
    options.num_shards = 3;
    options.num_threads = 2;
    return options;
  }());

  for (int k : {1, 3}) {
    QueryOptions options;
    options.params = {0.25, 0.01};
    options.report_probabilities = true;
    ExpectEquivalent(RunKnnBatch(flat, points, k, options, false),
                     RunKnnBatch(flat, points, k, options, true),
                     "QueryEngine", Strategy::kBasic);
    ExpectEquivalent(RunKnnBatch(sharded, points, k, options, false),
                     RunKnnBatch(sharded, points, k, options, true),
                     "3-shard QueryEngine", Strategy::kBasic);
  }
}

/// Restores the arch-flavor switch on scope exit (multiarch builds only
/// ever read it, but a leaked override would skew later tests).
class ArchFlagGuard {
 public:
  ArchFlagGuard() : saved_(ArchKernelsEnabled()) {}
  ~ArchFlagGuard() { SetArchKernelsEnabled(saved_); }

 private:
  bool saved_;
};

// Fat-binary dispatch: the selected flavor name must be consistent with
// what the binary carries, what the CPU supports, and the runtime switch.
// Under PVERIFY_KERNEL_ARCH=baseline (the CI forced-baseline leg) the env
// override flips ArchKernelsEnabled()'s default, so the same assertions
// hold there too.
TEST(SimdEquivalenceTest, ActiveFlavorMatchesDispatchState) {
  ArchFlagGuard guard;
  const bool arch_active =
      MultiArchCompiled() && ArchKernelsEnabled() && ArchKernelsSupportedByCpu();
  const std::string flavor = ActiveKernelFlavorName();
  if (arch_active) {
#if defined(PVERIFY_MULTIARCH_CPU)
    EXPECT_EQ(flavor, PVERIFY_MULTIARCH_CPU);
#endif
    EXPECT_NE(flavor, "baseline");
    // Forcing baseline must take effect immediately.
    SetArchKernelsEnabled(false);
    EXPECT_EQ(std::string(ActiveKernelFlavorName()), "baseline");
  } else {
    EXPECT_EQ(flavor, "baseline");
  }
  if (!MultiArchCompiled()) {
    EXPECT_FALSE(ArchKernelsSupportedByCpu());
  }
}

// Both flavors of a multiarch binary must agree: rerun the verifier chain
// with the arch kernels forced off and compare against the default
// selection. (Degenerates to baseline-vs-baseline when the host or build
// lacks the arch flavor — still a valid determinism check.)
TEST(SimdEquivalenceTest, ArchAndBaselineFlavorsAgree) {
  SimdFlagGuard simd_guard;
  ArchFlagGuard arch_guard;
  SetSimdKernelsEnabled(true);
  Dataset data = MakeOverlappingDataset(128, 91);
  std::vector<uint32_t> idx(data.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const CandidateSet base = CandidateSet::Build1D(data, idx, 0.0);

  SetArchKernelsEnabled(true);
  CandidateSet arch_cands = base;
  VerificationFramework arch_fw(&arch_cands, CpnnParams{0.3, 0.01});
  arch_fw.RunDefault();

  SetArchKernelsEnabled(false);
  CandidateSet base_cands = base;
  VerificationFramework base_fw(&base_cands, CpnnParams{0.3, 0.01});
  base_fw.RunDefault();

  ASSERT_EQ(arch_cands.size(), base_cands.size());
  for (size_t i = 0; i < arch_cands.size(); ++i) {
    EXPECT_EQ(arch_cands[i].label, base_cands[i].label) << "candidate " << i;
    EXPECT_ULP_NEAR(arch_cands[i].bound.lower, base_cands[i].bound.lower,
                    kUlpBudget);
    EXPECT_ULP_NEAR(arch_cands[i].bound.upper, base_cands[i].bound.upper,
                    kUlpBudget);
  }
}

// The ULP helper itself: keys order correctly around zero and the
// distance is symmetric, zero on equality, and huge for NaN.
TEST(SimdEquivalenceTest, UlpDistanceBasics) {
  using testutil::UlpDistance;
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(UlpDistance(1.0, next), 1u);
  EXPECT_EQ(UlpDistance(next, 1.0), 1u);
  EXPECT_EQ(UlpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_EQ(UlpDistance(0.0, std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_GT(UlpDistance(1.0, 1.0 + 1e-9), 1000000u);
  EXPECT_EQ(UlpDistance(std::numeric_limits<double>::quiet_NaN(), 1.0),
            std::numeric_limits<uint64_t>::max());
}

}  // namespace
}  // namespace pverify
