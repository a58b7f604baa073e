// The benchmark's arithmetic, kept apart from the measuring code so that
// selftest.cc can pin it: which percentile a sample supports, how an
// open-loop request is charged, when a rate-ladder rung fails, which rounds
// count, and how an answer is checked against its reference.
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of size n ≥ 1:
/// the smallest index whose value has at least q·n samples at or below it.
inline size_t RankIndex(size_t n, double q) {
  // The epsilon keeps q·n = 990.0000000001 (binary fractions) from rounding
  // up to the next rank.
  const double k = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t idx = k < 1.0 ? 0 : static_cast<size_t>(k) - 1;
  return std::min(idx, n - 1);
}

/// A tail percentile as reported: the value, the quantile it really is,
/// and the sample count behind it.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  size_t samples = 0;
};

/// The highest quantile ≤ `target` that leaves at least
/// kTailSamplesBeyond samples beyond it. With fewer than
/// kTailSamplesBeyond + 1 samples no tail is supported and the median is
/// returned instead (quantile 0.5).
inline Tail SupportedTail(std::vector<double> values, double target) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t idx;
  if (n <= kTailSamplesBeyond) {
    idx = RankIndex(n, 0.5);
    t.quantile = 0.5;
  } else {
    idx = std::min(RankIndex(n, target), n - 1 - kTailSamplesBeyond);
    t.quantile = std::min(target, static_cast<double>(idx + 1) / n);
  }
  t.value = values[idx];
  return t;
}

/// Nearest-rank median (0 for an empty sample).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), 0.5)];
}

/// Mean of the middle half of a sample: the lowest and highest quarter
/// (rounded down) are dropped (0 for an empty sample). Over rounds whose
/// figure is a ladder rung it reads between rungs where a median must
/// pick one, and one starved round still cannot move it much.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Tail percentile of a time-ordered sample taken as the median over
/// consecutive windows of `window` samples each (the remainder joins the
/// last window). One stall on a shared host moves one window's tail, not
/// the reported figure. Falls back to SupportedTail over the whole sample
/// when it holds fewer than two windows.
inline Tail WindowedTail(const std::vector<double>& in_time_order,
                         double target, size_t window) {
  const size_t n = in_time_order.size();
  if (window == 0 || n < 2 * window) return SupportedTail(in_time_order, target);
  const size_t windows = n / window;
  std::vector<double> tails;
  double quantile = target;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * window;
    const size_t hi = (w + 1 == windows) ? n : lo + window;
    Tail t = SupportedTail(
        std::vector<double>(in_time_order.begin() + lo,
                            in_time_order.begin() + hi),
        target);
    quantile = std::min(quantile, t.quantile);
    tails.push_back(t.value);
  }
  Tail out;
  out.value = Median(tails);
  out.quantile = quantile;
  out.samples = n;
  return out;
}

/// Open-loop latency of one request: from the slot it was scheduled for,
/// not from when the generator got round to sending it, so a stall is
/// charged to every request it delayed.
inline int64_t ChargedLatencyNs(int64_t due_ns, int64_t /*sent_ns*/,
                                int64_t received_ns) {
  return received_ns - due_ns;
}

/// True when the generator's send lag (sent − due, in send order) grows
/// over the run: the median lag of the last third exceeds that of the
/// first third by more than `tolerance_us`. A generator that falls
/// further and further behind its schedule is not offering the rate it
/// claims.
inline bool LatenessGrows(const std::vector<double>& lag_us_in_send_order,
                          double tolerance_us) {
  const size_t n = lag_us_in_send_order.size();
  if (n < 3) return false;
  const size_t third = n / 3;
  std::vector<double> first(lag_us_in_send_order.begin(),
                            lag_us_in_send_order.begin() + third);
  std::vector<double> last(lag_us_in_send_order.end() - third,
                           lag_us_in_send_order.end());
  return Median(last) - Median(first) > tolerance_us;
}

/// What one rung of the rate ladder measured.
struct RungOutcome {
  double offered_qps = 0.0;
  double tail_us = 0.0;        ///< the rung's p99 latency
  size_t failed = 0;           ///< requests that did not get a right answer
  bool lateness_grew = false;  ///< LatenessGrows on the rung's send lags
  bool backlog_abort = false;  ///< the backlog passed its cap mid-rung
};

inline bool RungPasses(const RungOutcome& r, double tail_limit_us) {
  return r.tail_us <= tail_limit_us && r.failed == 0 && !r.lateness_grew &&
         !r.backlog_abort;
}

/// max_qps_at_slo: the offered rate of the highest rung below the first
/// failing one (rungs are in ascending rate order; a pass above a failure
/// does not count). 0 when the first rung fails.
inline double MaxQpsAtSlo(const std::vector<RungOutcome>& rungs,
                          double tail_limit_us) {
  double best = 0.0;
  for (const RungOutcome& r : rungs) {
    if (!RungPasses(r, tail_limit_us)) break;
    best = r.offered_qps;
  }
  return best;
}

/// Indices, ascending, of the rounds to take metrics from: every round
/// whose hypervisor steal share stayed below `quiet`, or, when fewer than
/// `min_keep` did, the `min_keep` rounds with the least steal (ties go to
/// the earlier round). The choice sees only the steal shares, never what
/// the rounds measured.
inline std::vector<size_t> QuietRounds(const std::vector<double>& steal,
                                       double quiet, size_t min_keep) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] < quiet) ++keep;
  order.resize(std::min(std::max(keep, min_keep), order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

/// An answer is right only when its ids equal the reference's exactly
/// (both ascending, as every executor returns them).
template <typename Id>
bool SameAnswer(const std::vector<Id>& got, const std::vector<Id>& want) {
  return got == want;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
