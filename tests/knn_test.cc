#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/integrate.h"
#include "common/piecewise.h"
#include "common/rng.h"
#include "core/basic.h"
#include "core/cdf_batch.h"
#include "core/classifier.h"
#include "core/monte_carlo.h"
#include "core/simd.h"
#include "uncertain/pdf.h"

namespace pverify {
namespace {

// --- Frozen reference evaluator ---------------------------------------------
//
// The per-candidate evaluator the segment sweep replaced, kept verbatim as
// the oracle: for every candidate, every quadrature node recomputes all
// |C| cdfs and reruns the whole truncated Poisson-binomial DP. The sweep
// must reproduce its ids, bound bits and counters exactly.
namespace reference {

double AtMostBelow(const CandidateSet& cands, size_t i, double r, int limit,
                   double* gather) {
  std::vector<double> dp(static_cast<size_t>(limit) + 1, 0.0);
  dp[0] = 1.0;
  const bool batched = SimdKernelsEnabled();
  if (batched) CdfAcrossCandidates(cands, r, gather);
  for (size_t k = 0; k < cands.size(); ++k) {
    if (k == i) continue;
    const double p = batched ? gather[k] : cands[k].dist.Cdf(r);
    if (p <= 0.0) continue;
    for (int t = limit; t >= 1; --t) {
      dp[t] = dp[t] * (1.0 - p) + dp[t - 1] * p;
    }
    dp[0] *= 1.0 - p;
  }
  double sum = 0.0;
  for (double v : dp) sum += v;
  return std::min(1.0, sum);
}

std::vector<double> GlobalBreakpoints(const CandidateSet& candidates) {
  std::vector<double> breaks;
  for (const Candidate& c : candidates.items()) {
    breaks.insert(breaks.end(), c.dist.breakpoints().begin(),
                  c.dist.breakpoints().end());
  }
  return SortedUnique(std::move(breaks), 1e-12);
}

double ExactKnnProbability(const CandidateSet& candidates, size_t i, int k,
                           double fk, const std::vector<double>& breaks,
                           const IntegrationOptions& options) {
  const Candidate& cand = candidates[i];
  const double a = cand.dist.near();
  const double b = std::min(cand.dist.far(), fk);
  if (b <= a) return 0.0;
  std::vector<double> gather(candidates.size());
  auto f = [&candidates, i, k, &gather](double r) {
    double d = candidates[i].dist.Density(r);
    if (d == 0.0) return 0.0;
    return d * AtMostBelow(candidates, i, r, k - 1, gather.data());
  };
  return std::clamp(
      IntegrateWithBreakpoints(f, a, b, breaks, options.gauss_points), 0.0,
      1.0);
}

std::vector<double> ComputeKnnProbabilities(
    const CandidateSet& candidates, int k, const IntegrationOptions& options) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  const size_t n = candidates.size();
  std::vector<double> probs(n, 0.0);
  if (n == 0) return probs;
  if (static_cast<size_t>(k) >= n) {
    std::fill(probs.begin(), probs.end(), 1.0);
    return probs;
  }
  const double fk = KthFarPoint(candidates, k);
  std::vector<double> breaks = GlobalBreakpoints(candidates);
  for (size_t i = 0; i < n; ++i) {
    probs[i] = ExactKnnProbability(candidates, i, k, fk, breaks, options);
  }
  return probs;
}

CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options) {
  params.Validate();
  CknnAnswer answer;
  const size_t n = candidates.size();
  answer.bounds.assign(n, ProbabilityBound{0.0, 1.0});
  if (n == 0) return answer;
  if (static_cast<size_t>(k) >= n) {
    for (size_t i = 0; i < n; ++i) {
      answer.bounds[i] = ProbabilityBound{1.0, 1.0};
      answer.ids.push_back(candidates[i].id);
    }
    return answer;
  }

  const double fk = KthFarPoint(candidates, k);
  const std::vector<double> ub = KnnRsUpperBounds(candidates, k);
  const std::vector<double> breaks = GlobalBreakpoints(candidates);
  std::vector<double> gather(n);

  for (size_t i = 0; i < n; ++i) {
    ProbabilityBound& bound = answer.bounds[i];
    bound.Tighten(0.0, ub[i]);
    if (Classify(bound, params) == Label::kFail) {
      ++answer.pruned_by_bound;
      continue;
    }
    const Candidate& cand = candidates[i];
    const double a = cand.dist.near();
    const double b = std::min(cand.dist.far(), fk);
    auto f = [&candidates, i, k, &gather](double r) {
      double d = candidates[i].dist.Density(r);
      if (d == 0.0) return 0.0;
      return d * AtMostBelow(candidates, i, r, k - 1, gather.data());
    };
    const double cdf_b = cand.dist.Cdf(b);

    double partial = 0.0;
    double prev = a;
    Label label = Label::kUnknown;
    auto it = std::upper_bound(breaks.begin(), breaks.end(), a);
    bool done = false;
    while (!done) {
      double next;
      if (it != breaks.end() && *it < b) {
        next = *it;
        ++it;
      } else {
        next = b;
        done = true;
      }
      if (next <= prev) continue;
      partial += GaussLegendre(f, prev, next, options.gauss_points);
      ++answer.segments_evaluated;
      prev = next;
      double remaining = std::max(0.0, cdf_b - cand.dist.Cdf(prev));
      bound.Tighten(std::clamp(partial, 0.0, 1.0),
                    std::clamp(partial + remaining, 0.0, 1.0));
      label = Classify(bound, params);
      if (label != Label::kUnknown) {
        if (!done) ++answer.early_decided;
        break;
      }
    }
    if (label == Label::kUnknown) {
      bound.Tighten(bound.upper, bound.upper);
      label = Classify(bound, params);
    }
    if (label == Label::kSatisfy) answer.ids.push_back(candidates[i].id);
  }
  return answer;
}

}  // namespace reference


CandidateSet MakeCandidates(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 20.0);
    data.emplace_back(i, MakeUniformPdf(lo, lo + rng.Uniform(1.0, 10.0)));
  }
  std::vector<uint32_t> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  // Keep k-NN-relevant candidates for every k used in these tests.
  return CandidateSet::Build1D(data, idx, rng.Uniform(0.0, 25.0), /*k=*/5);
}

TEST(KthFarPointTest, OrderStatistics) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(1.0, 2.0));  // far 2
  data.emplace_back(1, MakeUniformPdf(0.5, 4.0));  // far 4
  data.emplace_back(2, MakeUniformPdf(1.5, 3.0));  // far 3
  CandidateSet cands = CandidateSet::Build1D(data, {0, 1, 2}, 0.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 1), 2.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 2), 3.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 3), 4.0);
  EXPECT_THROW(KthFarPoint(cands, 0), std::logic_error);
  EXPECT_THROW(KthFarPoint(cands, 4), std::logic_error);
}

TEST(KnnTest, KEqualsOneMatchesPnn) {
  for (uint64_t seed : {3ULL, 7ULL, 11ULL}) {
    CandidateSet cands = MakeCandidates(8, seed);
    if (cands.empty()) continue;
    std::vector<double> pnn = ComputeExactProbabilities(cands, {});
    std::vector<double> knn = ComputeKnnProbabilities(cands, 1, {});
    ASSERT_EQ(pnn.size(), knn.size());
    for (size_t i = 0; i < pnn.size(); ++i) {
      EXPECT_NEAR(knn[i], pnn[i], 1e-6) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(KnnTest, ProbabilitiesSumToK) {
  // Expected size of the k-NN set is k: Σ_i p_i^(k) = k.
  for (int k : {1, 2, 3, 5}) {
    CandidateSet cands = MakeCandidates(9, 13);
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    double sum = 0.0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, std::min<double>(k, cands.size()), 1e-5) << "k=" << k;
  }
}

TEST(KnnTest, MonotoneInK) {
  CandidateSet cands = MakeCandidates(10, 17);
  std::vector<double> prev(cands.size(), 0.0);
  for (int k = 1; k <= 5; ++k) {
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p[i], prev[i] - 1e-9) << "k=" << k << " i=" << i;
    }
    prev = p;
  }
}

TEST(KnnTest, KAtLeastCandidateCountIsCertain) {
  CandidateSet cands = MakeCandidates(5, 19);
  std::vector<double> p =
      ComputeKnnProbabilities(cands, static_cast<int>(cands.size()), {});
  for (double v : p) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(KnnTest, UpperBoundsHold) {
  for (int k : {1, 2, 3}) {
    CandidateSet cands = MakeCandidates(8, 23);
    std::vector<double> ub = KnnRsUpperBounds(cands, k);
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_LE(p[i], ub[i] + 1e-6) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KnnTest, MatchesMonteCarloRanking) {
  CandidateSet cands = MakeCandidates(6, 29);
  const int k = 2;
  std::vector<double> exact = ComputeKnnProbabilities(cands, k, {});
  // Monte-Carlo estimate of P(in top-k).
  Rng rng(99);
  const int kSamples = 100000;
  std::vector<int> wins(cands.size(), 0);
  std::vector<std::pair<double, size_t>> draws(cands.size());
  for (int s = 0; s < kSamples; ++s) {
    for (size_t i = 0; i < cands.size(); ++i) {
      draws[i] = {cands[i].dist.Quantile(rng.Uniform(0.0, 1.0)), i};
    }
    std::partial_sort(draws.begin(), draws.begin() + k, draws.end());
    for (int t = 0; t < k; ++t) ++wins[draws[t].second];
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    double mc = static_cast<double>(wins[i]) / kSamples;
    EXPECT_NEAR(exact[i], mc, 0.01) << "i=" << i;
  }
}

TEST(CknnTest, AnswersMeetThreshold) {
  CandidateSet cands = MakeCandidates(10, 31);
  CpnnParams params{0.4, 0.0};
  CknnAnswer ans = EvaluateCknn(cands, 2, params, {});
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool returned = std::find(ans.ids.begin(), ans.ids.end(),
                              cands[i].id) != ans.ids.end();
    EXPECT_EQ(returned, exact[i] >= params.threshold) << "i=" << i;
  }
}

TEST(CknnTest, BoundPruningIsLossless) {
  CandidateSet cands = MakeCandidates(12, 37);
  CpnnParams params{0.6, 0.0};
  CknnAnswer with_bound = EvaluateCknn(cands, 3, params, {});
  // Recompute without pruning via raw exact probabilities.
  std::vector<double> exact = ComputeKnnProbabilities(cands, 3, {});
  std::vector<ObjectId> expect;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (exact[i] >= params.threshold) expect.push_back(cands[i].id);
  }
  EXPECT_EQ(with_bound.ids, expect);
}

TEST(CknnTest, KCoveringAllCandidates) {
  CandidateSet cands = MakeCandidates(4, 41);
  CknnAnswer ans =
      EvaluateCknn(cands, static_cast<int>(cands.size()), {0.5, 0.0}, {});
  EXPECT_EQ(ans.ids.size(), cands.size());
}

TEST(CknnTest, BoundsContainExactProbabilities) {
  CandidateSet cands = MakeCandidates(10, 47);
  CpnnParams params{0.5, 0.0};
  CknnAnswer ans = EvaluateCknn(cands, 2, params, {});
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  ASSERT_EQ(ans.bounds.size(), cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_LE(ans.bounds[i].lower, exact[i] + 1e-6) << "i=" << i;
    EXPECT_GE(ans.bounds[i].upper, exact[i] - 1e-6) << "i=" << i;
  }
}

TEST(CknnTest, ProgressiveRefinementSavesSegments) {
  // A strict threshold lets the running bound decide most candidates before
  // the integral completes.
  CandidateSet cands = MakeCandidates(12, 53);
  CknnAnswer strict = EvaluateCknn(cands, 3, {0.9, 0.0}, {});
  CknnAnswer loose = EvaluateCknn(cands, 3, {0.01, 0.0}, {});
  EXPECT_GT(strict.pruned_by_bound + strict.early_decided, 0u);
  // Both settings agree with exact ground truth on membership.
  std::vector<double> exact = ComputeKnnProbabilities(cands, 3, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool in_strict = std::find(strict.ids.begin(), strict.ids.end(),
                               cands[i].id) != strict.ids.end();
    bool in_loose = std::find(loose.ids.begin(), loose.ids.end(),
                              cands[i].id) != loose.ids.end();
    EXPECT_EQ(in_strict, exact[i] >= 0.9) << "i=" << i;
    EXPECT_EQ(in_loose, exact[i] >= 0.01) << "i=" << i;
  }
}

TEST(CknnTest, ToleranceAdmitsBorderlineMembers) {
  CandidateSet cands = MakeCandidates(9, 59);
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  CknnAnswer ans = EvaluateCknn(cands, 2, {0.4, 0.1}, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool returned = std::find(ans.ids.begin(), ans.ids.end(),
                              cands[i].id) != ans.ids.end();
    if (exact[i] >= 0.4 + 1e-6) {
      EXPECT_TRUE(returned) << "i=" << i;
    }
    if (exact[i] < 0.4 - 0.1 - 1e-6) {
      EXPECT_FALSE(returned) << "i=" << i;
    }
  }
}

// --- Sweep == frozen reference, bit for bit ---------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdentical(const CknnAnswer& want, const CknnAnswer& got,
                     const std::string& what) {
  EXPECT_EQ(want.ids, got.ids) << what;
  EXPECT_EQ(want.pruned_by_bound, got.pruned_by_bound) << what;
  EXPECT_EQ(want.early_decided, got.early_decided) << what;
  EXPECT_EQ(want.segments_evaluated, got.segments_evaluated) << what;
  ASSERT_EQ(want.bounds.size(), got.bounds.size()) << what;
  for (size_t i = 0; i < want.bounds.size(); ++i) {
    EXPECT_TRUE(SameBits(want.bounds[i].lower, got.bounds[i].lower) &&
                SameBits(want.bounds[i].upper, got.bounds[i].upper))
        << what << " bound " << i << ": want [" << want.bounds[i].lower
        << ", " << want.bounds[i].upper << "] got [" << got.bounds[i].lower
        << ", " << got.bounds[i].upper << "]";
  }
}

void ExpectIdentical(const std::vector<double>& want,
                     const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(want[i], got[i]))
        << what << " p[" << i << "]: want " << want[i] << " got " << got[i];
  }
}

enum class PdfShape { kUniform, kGaussian };

// Overlapping objects around a random query point, every object kept (the
// k-aware pruning at k = n keeps the full set).
CandidateSet MakeShapedCandidates(int n, PdfShape shape, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    const double lo = rng.Uniform(0.0, 20.0);
    const double hi = lo + rng.Uniform(1.0, 10.0);
    data.emplace_back(i, shape == PdfShape::kUniform
                             ? MakeUniformPdf(lo, hi)
                             : MakeGaussianPdf(lo, hi, /*bars=*/24));
  }
  std::vector<uint32_t> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  return CandidateSet::Build1D(data, idx, rng.Uniform(0.0, 25.0), n);
}

// Small k, k = |C| − 1 (the deepest DP) and k >= |C| (the certain-
// membership shortcut).
std::vector<int> KSweep(size_t n) {
  std::vector<int> ks = {1, 2, 4, 8, static_cast<int>(n) - 1,
                         static_cast<int>(n), static_cast<int>(n) + 3};
  ks.erase(std::remove_if(ks.begin(), ks.end(), [](int k) { return k < 1; }),
           ks.end());
  return ks;
}

void CheckAgainstReference(const CandidateSet& cands, const std::string& tag,
                           KnnWorkspace* ws) {
  const CpnnParams params_list[] = {{0.3, 0.01}, {0.1, 0.0}, {0.6, 0.05}};
  const int gauss_list[] = {16, 4};
  for (int k : KSweep(cands.size())) {
    for (int g : gauss_list) {
      IntegrationOptions opt;
      opt.gauss_points = g;
      const std::string what =
          tag + " k=" + std::to_string(k) + " G=" + std::to_string(g);
      ExpectIdentical(reference::ComputeKnnProbabilities(cands, k, opt),
                      ComputeKnnProbabilities(cands, k, opt),
                      what + " probabilities");
      for (const CpnnParams& params : params_list) {
        ExpectIdentical(
            reference::EvaluateCknn(cands, k, params, opt),
            EvaluateCknn(cands, k, params, opt, ws),
            what + " P=" + std::to_string(params.threshold) +
                " D=" + std::to_string(params.tolerance));
      }
    }
  }
}

TEST(KnnSweepTest, MatchesReferenceOnUniformPdfs) {
  KnnWorkspace ws;  // reused across every call, as a worker's scratch is
  for (uint64_t seed : {101ULL, 103ULL, 107ULL}) {
    CandidateSet cands = MakeShapedCandidates(40, PdfShape::kUniform, seed);
    CheckAgainstReference(cands, "uniform seed=" + std::to_string(seed), &ws);
  }
}

TEST(KnnSweepTest, MatchesReferenceOnGaussianPdfs) {
  for (uint64_t seed : {109ULL, 113ULL}) {
    CandidateSet cands = MakeShapedCandidates(16, PdfShape::kGaussian, seed);
    CheckAgainstReference(cands, "gaussian seed=" + std::to_string(seed),
                          nullptr);
  }
}

TEST(KnnSweepTest, MatchesReferenceOnUnsortedCandidateSets) {
  // A set reordered after construction is no longer ascending by near
  // point; the sweep then folds every candidate at every node.
  CandidateSet cands = MakeShapedCandidates(30, PdfShape::kUniform, 127);
  std::mt19937 shuffle_rng(5);
  std::shuffle(cands.items().begin(), cands.items().end(), shuffle_rng);
  CheckAgainstReference(cands, "shuffled", nullptr);
}

TEST(KnnSweepTest, MatchesReferenceWhenBreakpointsCollide) {
  // Endpoints on a coarse grid, jittered by far less than the 1e-12
  // breakpoint de-duplication: many candidates' near and far points are
  // merged into a neighbour's, so their first and last pieces are not
  // whole global segments and are integrated on their own.
  for (uint64_t seed : {149ULL, 151ULL}) {
    Rng rng(seed);
    Dataset data;
    for (int i = 0; i < 30; ++i) {
      const double lo = std::floor(rng.Uniform(0.0, 12.0)) +
                        rng.Uniform(-4e-13, 4e-13);
      const double hi = lo + std::floor(rng.Uniform(1.0, 6.0)) +
                        rng.Uniform(-4e-13, 4e-13);
      data.emplace_back(i, MakeUniformPdf(lo, hi));
    }
    std::vector<uint32_t> idx;
    for (int i = 0; i < 30; ++i) idx.push_back(i);
    for (double q : {-1.0, 6.5}) {
      CandidateSet cands = CandidateSet::Build1D(data, idx, q, 30);
      CheckAgainstReference(cands,
                            "collide seed=" + std::to_string(seed) +
                                " q=" + std::to_string(q),
                            nullptr);
    }
  }
}

TEST(KnnSweepTest, MatchesReferenceAtLargeK) {
  // k = 55 of |C| = 60: the DP keeps 55 states per node, and the running
  // prefix passes through most of the set before the last candidates of a
  // segment resume from it.
  CandidateSet cands = MakeShapedCandidates(60, PdfShape::kUniform, 131);
  const int k = 55;
  ASSERT_EQ(cands.size(), 60u);
  const IntegrationOptions opt;
  KnnWorkspace ws;
  for (const CpnnParams& params : {CpnnParams{0.3, 0.0},
                                   CpnnParams{0.95, 0.01}}) {
    ExpectIdentical(reference::EvaluateCknn(cands, k, params, opt),
                    EvaluateCknn(cands, k, params, opt, &ws),
                    "large k P=" + std::to_string(params.threshold));
  }
  ExpectIdentical(reference::ComputeKnnProbabilities(cands, k, opt),
                  ComputeKnnProbabilities(cands, k, opt),
                  "large k probabilities");
}

TEST(KnnSweepTest, WorkspaceReuseDoesNotChangeAnswers) {
  KnnWorkspace ws;
  CandidateSet big = MakeShapedCandidates(40, PdfShape::kUniform, 137);
  CandidateSet small = MakeShapedCandidates(9, PdfShape::kGaussian, 139);
  const CpnnParams params{0.3, 0.01};
  const CknnAnswer fresh = EvaluateCknn(small, 3, params, {});
  EvaluateCknn(big, 8, params, {}, &ws);  // grows every buffer
  ExpectIdentical(fresh, EvaluateCknn(small, 3, params, {}, &ws), "reuse");
  EXPECT_GT(ws.ApproxBytes(), 0u);
}

}  // namespace
}  // namespace pverify
