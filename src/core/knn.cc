#include "core/knn.h"

#include <algorithm>

#include "common/check.h"
#include "common/integrate.h"
#include "common/piecewise.h"
#include "core/cdf_batch.h"
#include "core/classifier.h"

namespace pverify {
namespace {

// The Poisson-binomial DP runs for all G quadrature nodes of a piece at
// once: lane j of state row t, dp[t·G + j], is P[exactly t of the folded
// candidates are below node j], truncated at t <= limit. Each lane performs
// exactly the per-node recurrence, in the same candidate order (lanes never
// mix), so vectorizing across lanes changes no bit.

// Folds one more candidate, below node j with probability p[j], into every
// lane. A lane with p[j] <= 0 keeps its state: the per-node DP skips such
// candidates.
template <size_t G>
inline void FoldIn(double* dp, int limit, const double* __restrict p) {
  for (int t = limit; t >= 1; --t) {
    double* __restrict row = dp + static_cast<size_t>(t) * G;
    const double* __restrict below = row - G;
    for (size_t j = 0; j < G; ++j) {
      const double v = row[j] * (1.0 - p[j]) + below[j] * p[j];
      row[j] = p[j] <= 0.0 ? row[j] : v;
    }
  }
  for (size_t j = 0; j < G; ++j) {
    const double v = dp[j] * (1.0 - p[j]);
    dp[j] = p[j] <= 0.0 ? dp[j] : v;
  }
}

// Quadrature nodes of [lo, hi] under `rule`, exactly as GaussLegendre
// places them; returns half the width.
double PlaceNodes(const GaussLegendreRule& rule, double lo, double hi,
                  double* nodes) {
  const double mid = 0.5 * (lo + hi);
  const double half = 0.5 * (hi - lo);
  for (int j = 0; j < rule.n; ++j) nodes[j] = mid + half * rule.nodes[j];
  return half;
}

// The one k-NN integrator behind EvaluateCknn (params != nullptr:
// RS-bound pruning, classification after every piece, early stop) and
// ComputeKnnProbabilities (params == nullptr: every candidate integrated
// to completion), for a G-node Gauss-Legendre rule. See the header for the
// sweep and why it reproduces per-candidate evaluation bit for bit.
template <size_t G>
class KnnSweep {
 public:
  KnnSweep(const CandidateSet& cands, int k, const GaussLegendreRule& rule,
           const CpnnParams* params, KnnWorkspace& ws)
      : cands_(cands),
        n_(cands.size()),
        limit_(k - 1),
        states_(static_cast<size_t>(k)),
        rule_(rule),
        params_(params),
        ws_(ws) {
    ws_.breaks.clear();
    for (const Candidate& c : cands_.items()) {
      ws_.breaks.insert(ws_.breaks.end(), c.dist.breakpoints().begin(),
                        c.dist.breakpoints().end());
    }
    SortedUniqueInPlace(ws_.breaks, 1e-12);
    ws_.tracks.assign(n_, KnnWorkspace::Track{});
    ws_.labels.assign(n_, Label::kUnknown);
    ws_.live.clear();
    ws_.dp.resize(states_ * G);
    ws_.prefix.resize(states_ * G);
    sorted_ = std::is_sorted(
        cands_.items().begin(), cands_.items().end(),
        [](const Candidate& x, const Candidate& y) {
          return x.dist.near() < y.dist.near();
        });
  }

  // EvaluateCknn: bounds start at [0, 1] and receive the RS upper bounds.
  void Evaluate(double fk, const std::vector<double>& ub, CknnAnswer* out) {
    answer_ = out;
    for (size_t i = 0; i < n_; ++i) {
      ProbabilityBound& bound = out->bounds[i];
      bound.Tighten(0.0, ub[i]);
      // RS-style verification: reject without integration when even the
      // upper bound misses the threshold.
      if (Classify(bound, *params_) == Label::kFail) {
        ++out->pruned_by_bound;
        ws_.labels[i] = Label::kFail;
        continue;
      }
      Start(i, fk);
      // The cap subtracts from P(R_i <= b), which does not change across
      // pieces — evaluate it once per candidate.
      ws_.tracks[i].cdf_b = cands_[i].dist.Cdf(ws_.tracks[i].b);
      if (ws_.tracks[i].b <= ws_.tracks[i].a) {
        Decide(i);  // nothing to integrate: the bound decides as it is
      } else {
        ws_.live.push_back(i);
      }
    }
    Sweep();
    for (size_t i = 0; i < n_; ++i) {
      if (ws_.labels[i] == Label::kSatisfy) out->ids.push_back(cands_[i].id);
    }
  }

  // ComputeKnnProbabilities: probs[i] receives the clamped full integral.
  void Integrate(double fk, std::vector<double>* probs) {
    probs_ = probs;
    for (size_t i = 0; i < n_; ++i) {
      Start(i, fk);
      // Certainly beyond the k-th far point: probability 0.
      if (ws_.tracks[i].b > ws_.tracks[i].a) ws_.live.push_back(i);
    }
    Sweep();
  }

 private:
  void Start(size_t i, double fk) {
    KnnWorkspace::Track& t = ws_.tracks[i];
    t.a = cands_[i].dist.near();
    t.b = std::min(cands_[i].dist.far(), fk);
    t.prev = t.a;
    t.cursor = static_cast<size_t>(
        std::upper_bound(ws_.breaks.begin(), ws_.breaks.end(), t.a) -
        ws_.breaks.begin());
  }

  // End of candidate i's current piece; *done when it is the last piece.
  double PieceEnd(const KnnWorkspace::Track& t, bool* done) const {
    *done = !(t.cursor < ws_.breaks.size() && ws_.breaks[t.cursor] < t.b);
    return *done ? t.b : ws_.breaks[t.cursor];
  }

  // Candidates whose cdf at `x_max` (and so at every node up to it) may be
  // positive: those with near point below x_max when the set is ordered by
  // near point, and always at least [0, at_least).
  size_t ActiveCount(double x_max, size_t at_least) const {
    if (!sorted_) return n_;
    const auto& items = cands_.items();
    const size_t m = static_cast<size_t>(
        std::partition_point(items.begin(), items.end(),
                             [x_max](const Candidate& c) {
                               return c.dist.near() < x_max;
                             }) -
        items.begin());
    return std::max(m, at_least);
  }

  // cdfs[c·G + j] = D_c(nodes[j]) for c in [0, m), one merge scan per
  // candidate (bit-identical to per-node Cdf calls).
  void GatherCdfs(size_t m) {
    ws_.cdfs.resize(m * G);
    for (size_t c = 0; c < m; ++c) {
      cands_[c].dist.CdfSorted(nodes_, G, &ws_.cdfs[c * G]);
    }
  }

  // Gauss-Legendre over candidate i's piece, whose nodes are in nodes_ and
  // cdfs in the workspace: at every node the DP over the other candidates
  // resumes from `prefix`, the state after folding candidates [0, i), or
  // starts from scratch when it is null, and yields P[at most k−1 of them
  // are below the node].
  double PieceIntegral(size_t i, double half, size_t m, const double* prefix) {
    double density[G];
    bool any = false;
    for (size_t j = 0; j < G; ++j) {
      density[j] = cands_[i].dist.Density(nodes_[j]);
      any = any || density[j] != 0.0;
    }
    double* dp = ws_.dp.data();
    if (any) {
      size_t from = 0;
      if (prefix != nullptr) {
        std::copy(prefix, prefix + states_ * G, dp);
        from = i + 1;
      } else {
        ResetState(dp);
      }
      for (size_t c = from; c < m; ++c) {
        if (c != i) FoldIn<G>(dp, limit_, &ws_.cdfs[c * G]);
      }
    }
    double sum = 0.0;
    for (size_t j = 0; j < G; ++j) {
      double f = 0.0;
      if (density[j] != 0.0) {
        double at_most = 0.0;
        for (size_t t = 0; t < states_; ++t) at_most += dp[t * G + j];
        f = density[j] * std::min(1.0, at_most);
      }
      sum += rule_.weights[j] * f;
    }
    return sum * half;
  }

  // The DP state of the empty prefix: P[0 below] = 1 in every lane.
  void ResetState(double* state) const {
    std::fill(state, state + states_ * G, 0.0);
    std::fill(state, state + G, 1.0);
  }

  // Integrates piece by piece in ascending order of the global segment each
  // piece lies in; every pass moves each live candidate on by one piece.
  void Sweep() {
    const std::vector<double>& breaks = ws_.breaks;
    while (!ws_.live.empty()) {
      size_t cursor = ws_.tracks[ws_.live.front()].cursor;
      for (size_t i : ws_.live) {
        cursor = std::min(cursor, ws_.tracks[i].cursor);
      }
      // Candidates whose current piece is exactly global segment
      // [breaks[cursor−1], breaks[cursor]] share its nodes, cdfs and
      // prefix state; any other piece at this cursor is integrated alone.
      ws_.shared.clear();
      for (size_t i : ws_.live) {
        const KnnWorkspace::Track& t = ws_.tracks[i];
        if (t.cursor != cursor) continue;
        bool done;
        const double end = PieceEnd(t, &done);
        if (cursor > 0 && cursor < breaks.size() &&
            t.prev == breaks[cursor - 1] && end == breaks[cursor]) {
          ws_.shared.push_back(i);
        } else {
          const double half = PlaceNodes(rule_, t.prev, end, nodes_);
          const size_t m = ActiveCount(nodes_[G - 1], 0);
          GatherCdfs(m);
          Advance(i, PieceIntegral(i, half, m, /*prefix=*/nullptr), end, done);
        }
      }
      if (!ws_.shared.empty()) {
        const double half = PlaceNodes(rule_, breaks[cursor - 1],
                                       breaks[cursor], nodes_);
        const size_t m = ActiveCount(nodes_[G - 1], ws_.shared.back() + 1);
        GatherCdfs(m);
        // shared is ascending, so one running prefix serves every
        // candidate: fold up to i, let i resume from it, move on.
        double* prefix = ws_.prefix.data();
        ResetState(prefix);
        size_t folded = 0;
        for (size_t i : ws_.shared) {
          for (; folded < i; ++folded) {
            FoldIn<G>(prefix, limit_, &ws_.cdfs[folded * G]);
          }
          bool done;
          PieceEnd(ws_.tracks[i], &done);
          Advance(i, PieceIntegral(i, half, m, prefix), breaks[cursor], done);
        }
      }
      // Drop the candidates that finished or were decided.
      ws_.live.erase(std::remove_if(ws_.live.begin(), ws_.live.end(),
                                    [this](size_t i) {
                                      return ws_.labels[i] != Label::kUnknown;
                                    }),
                     ws_.live.end());
    }
  }

  // Adds one piece's integral to candidate i and, when evaluating a C-PkNN,
  // classifies the running bound [partial, partial + remaining mass].
  void Advance(size_t i, double piece, double end, bool done) {
    KnnWorkspace::Track& t = ws_.tracks[i];
    t.partial += piece;
    t.prev = end;
    ++t.cursor;
    if (params_ == nullptr) {
      if (done) {
        (*probs_)[i] = std::clamp(t.partial, 0.0, 1.0);
        ws_.labels[i] = Label::kSatisfy;  // any decided label ends the track
      }
      return;
    }
    ++answer_->segments_evaluated;
    // Unintegrated probability mass of R_i in (prev, b] caps the rest of
    // the integral (the Poisson-binomial factor is <= 1).
    const double remaining =
        std::max(0.0, t.cdf_b - cands_[i].dist.Cdf(t.prev));
    ProbabilityBound& bound = answer_->bounds[i];
    bound.Tighten(std::clamp(t.partial, 0.0, 1.0),
                  std::clamp(t.partial + remaining, 0.0, 1.0));
    const Label label = Classify(bound, *params_);
    if (label != Label::kUnknown) {
      if (!done) ++answer_->early_decided;
      ws_.labels[i] = label;
    } else if (done) {
      Decide(i);
    }
  }

  // Fully integrated (or nothing to integrate): the zero-width bound
  // decides.
  void Decide(size_t i) {
    ProbabilityBound& bound = answer_->bounds[i];
    bound.Tighten(bound.upper, bound.upper);
    ws_.labels[i] = Classify(bound, *params_);
  }

  const CandidateSet& cands_;
  const size_t n_;
  const int limit_;       // k − 1
  const size_t states_;   // k DP states per node
  const GaussLegendreRule rule_;
  const CpnnParams* params_;
  KnnWorkspace& ws_;
  bool sorted_ = false;   // candidates ascending by near point
  double nodes_[G] = {};  // quadrature nodes of the current piece
  CknnAnswer* answer_ = nullptr;
  std::vector<double>* probs_ = nullptr;
};

// Runs fn(KnnSweep<G>&) with G the node count of the `gauss_points` rule.
template <typename Fn>
void RunSweep(const CandidateSet& cands, int k, int gauss_points,
              const CpnnParams* params, KnnWorkspace* workspace, Fn&& fn) {
  KnnWorkspace local;
  KnnWorkspace& ws = workspace != nullptr ? *workspace : local;
  const GaussLegendreRule rule = GaussLegendreNodes(gauss_points);
  switch (rule.n) {
    case 2: {
      KnnSweep<2> sweep(cands, k, rule, params, ws);
      return fn(sweep);
    }
    case 4: {
      KnnSweep<4> sweep(cands, k, rule, params, ws);
      return fn(sweep);
    }
    case 8: {
      KnnSweep<8> sweep(cands, k, rule, params, ws);
      return fn(sweep);
    }
    default: {
      PV_CHECK(rule.n == 16);
      KnnSweep<16> sweep(cands, k, rule, params, ws);
      return fn(sweep);
    }
  }
}

}  // namespace

size_t KnnWorkspace::ApproxBytes() const {
  return (breaks.capacity() + cdfs.capacity() + prefix.capacity() +
          dp.capacity()) * sizeof(double) +
         tracks.capacity() * sizeof(Track) +
         labels.capacity() * sizeof(Label) +
         (live.capacity() + shared.capacity()) * sizeof(size_t);
}

double KthFarPoint(const CandidateSet& candidates, int k) {
  PV_CHECK_MSG(k >= 1 && static_cast<size_t>(k) <= candidates.size(),
               "k must be in [1, |C|]");
  std::vector<double> fars;
  fars.reserve(candidates.size());
  for (const Candidate& c : candidates.items()) fars.push_back(c.dist.far());
  std::nth_element(fars.begin(), fars.begin() + (k - 1), fars.end());
  return fars[k - 1];
}

std::vector<double> KnnRsUpperBounds(const CandidateSet& candidates, int k) {
  const double fk = KthFarPoint(candidates, k);
  std::vector<double> ub(candidates.size(), 1.0);
  // p_i^(k) <= P(R_i <= f^(k)) = D_i(f^(k)) — one contiguous gather
  // (bit-identical to the per-candidate Cdf loop it replaces).
  CdfAcrossCandidates(candidates, fk, ub.data());
  return ub;
}

std::vector<double> ComputeKnnProbabilities(const CandidateSet& candidates,
                                            int k,
                                            const IntegrationOptions& options) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  const size_t n = candidates.size();
  std::vector<double> probs(n, 0.0);
  if (n == 0) return probs;
  if (static_cast<size_t>(k) >= n) {
    // Every candidate is among the k nearest with certainty.
    std::fill(probs.begin(), probs.end(), 1.0);
    return probs;
  }
  const double fk = KthFarPoint(candidates, k);
  RunSweep(candidates, k, options.gauss_points, /*params=*/nullptr,
           /*workspace=*/nullptr,
           [&](auto& sweep) { sweep.Integrate(fk, &probs); });
  return probs;
}

CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options,
                        KnnWorkspace* workspace) {
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
  RunSweep(candidates, k, options.gauss_points, &params, workspace,
           [&](auto& sweep) { sweep.Evaluate(fk, ub, &answer); });
  return answer;
}

}  // namespace pverify
