// Probabilistic k-NN extension (the paper's §VI future work).
//
// The k-NN qualification probability of candidate X_i is
//
//   p_i^(k) = ∫ d_i(r) · P[at most k−1 of the other R_j are below r] dr,
//
// where the inner probability is a Poisson-binomial tail over the other
// candidates' distance cdfs, evaluated with the standard O(|C|·k) dynamic
// program. Three pruning devices generalize the PNN machinery:
//
//  * k-th far point: with f^(k) the k-th smallest far point, any candidate
//    whose distance exceeds f^(k) certainly has k closer objects, so the
//    integration stops there and mass beyond it bounds p_i^(k) from above —
//    the k-NN analogue of the RS verifier.
//  * filtering: candidates with near point beyond f^(k) are dropped
//    outright.
//  * progressive refinement: the integral accumulates segment by segment,
//    maintaining the bound [partial, partial + unintegrated mass]; the
//    Definition 1 classifier decides most candidates long before the
//    integral completes — the k-NN analogue of incremental refinement.
//
// Evaluation is one ascending sweep over the global breakpoints (the union
// of every candidate's distance-pdf breakpoints). Each candidate integrates
// the pieces of [n_i, min(f_i, f^(k))] that those breakpoints cut, with
// Gauss-Legendre on every piece, so most pieces are exactly a global
// segment that many candidates share. For such a segment and each of its
// G quadrature nodes r the sweep gathers once the cdfs D_j(r) of the
// candidates with near point below r (the set is ordered by near point, so
// every later candidate has D_j(r) = 0 and drops out of the DP). It then
// walks the segment's undecided candidates in candidate order with one
// running DP state: it folds candidates in up to candidate i, lets i resume
// from that state and fold in only its own suffix, and moves on. The DP
// therefore sees the same probabilities in the same order as a
// per-candidate evaluation would, and each candidate sums its own nodes and
// segments in the same order: answers, bounds and counters are
// bit-identical to evaluating the candidates one by one. The workspace
// holds the segment's cdfs, O(G·|C|) doubles, and two DP states of O(G·k).
// A candidate's first or last piece that is not a whole global segment
// runs the DP from the start.
#ifndef PVERIFY_CORE_KNN_H_
#define PVERIFY_CORE_KNN_H_

#include <cstddef>
#include <vector>

#include "core/candidate.h"
#include "core/refine.h"
#include "core/types.h"

namespace pverify {

/// Reusable storage of the k-NN sweep, owned by a QueryScratch (one per
/// worker). Passing nullptr where a KnnWorkspace* is accepted allocates a
/// local one; results are bit-identical either way. Not thread-safe.
struct KnnWorkspace {
  /// Integration state of one candidate.
  struct Track {
    double a = 0.0;        ///< integration start: the near point
    double b = 0.0;        ///< integration end: min(far point, f^(k))
    double cdf_b = 0.0;    ///< D_i(b), for the unintegrated-mass cap
    double partial = 0.0;  ///< integral over [a, prev]
    double prev = 0.0;     ///< start of the next piece
    size_t cursor = 0;     ///< index of the first global breakpoint > prev
  };

  std::vector<double> breaks;      ///< global breakpoints
  std::vector<Track> tracks;       ///< one per candidate
  std::vector<Label> labels;       ///< decided label per candidate
  std::vector<size_t> live;        ///< undecided candidates, ascending
  std::vector<size_t> shared;      ///< candidates on the current segment
  std::vector<double> cdfs;        ///< D_j(node), candidate-major
  std::vector<double> prefix;      ///< running prefix's DP state, per node
  std::vector<double> dp;          ///< one candidate's running DP state

  /// Approximate heap footprint (capacity, not size).
  size_t ApproxBytes() const;
};

/// k-th smallest far point of the candidate set (k >= 1). Requires
/// k <= |C|.
double KthFarPoint(const CandidateSet& candidates, int k);

/// RS-style upper bound for the k-NN probability of every candidate:
/// p_i^(k) <= D_i(f^(k)).
std::vector<double> KnnRsUpperBounds(const CandidateSet& candidates, int k);

/// Exact k-NN qualification probabilities (Poisson-binomial integration,
/// every candidate to completion). k = 1 reduces to the PNN probabilities.
std::vector<double> ComputeKnnProbabilities(const CandidateSet& candidates,
                                            int k,
                                            const IntegrationOptions& options);

/// Answer of a constrained k-NN query (threshold/tolerance semantics of
/// Definition 1 applied to p_i^(k)).
struct CknnAnswer {
  std::vector<ObjectId> ids;
  /// Final probability bound per candidate (candidate-set order);
  /// zero-width iff the probability was integrated to completion.
  std::vector<ProbabilityBound> bounds;
  size_t pruned_by_bound = 0;   ///< rejected by the RS-style bound alone
  size_t early_decided = 0;     ///< decided before the integral completed
  size_t segments_evaluated = 0;  ///< quadrature segments actually computed
};

/// Evaluates a constrained probabilistic k-NN query over the candidate set:
/// RS-style bound first, then progressive integration with Definition 1
/// classification after every segment.
CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options,
                        KnnWorkspace* workspace = nullptr);

}  // namespace pverify

#endif  // PVERIFY_CORE_KNN_H_
