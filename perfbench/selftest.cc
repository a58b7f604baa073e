// Self-tests for the benchmark's arithmetic (bench_math.h). run.py runs
// them before every measurement and refuses to report when one fails.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"

namespace pb = perfbench;
using namespace pverify;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[n - 1 - i] = static_cast<double>(i + 1);
  return v;  // n..1, unsorted on purpose
}

void TestSupportedTail() {
  // 1000 samples: p99 itself leaves exactly 10 beyond it.
  pb::Tail t = pb::SupportedTail(Ramp(1000), 0.99);
  Expect(t.value == 990 && t.quantile == 0.99 && t.samples == 1000,
         "p99 of 1..1000 is 990 (10 samples beyond)");
  // 999 samples: p99 would leave 9 beyond; the highest rank with 10 beyond
  // is the 989th value.
  t = pb::SupportedTail(Ramp(999), 0.99);
  Expect(t.value == 989 && t.quantile < 0.99,
         "999 samples fall back to the 989th value, below p99");
  // 200 samples: rank 190 (10 beyond), quantile 0.95.
  t = pb::SupportedTail(Ramp(200), 0.99);
  Expect(t.value == 190 && t.quantile == 0.95,
         "200 samples support p95 at most");
  // Too few samples for any tail: the median is reported.
  t = pb::SupportedTail(Ramp(7), 0.99);
  Expect(t.value == 4 && t.quantile == 0.5, "7 samples report the median");
  Expect(pb::Median(Ramp(10)) == 5, "nearest-rank median of 1..10 is 5");
  Expect(pb::InterquartileMean(Ramp(8)) == 4.5,
         "interquartile mean of 1..8 is the mean of 3..6");
  std::vector<double> rungs(12, 35000.0);
  for (size_t i = 0; i < 6; ++i) rungs[2 * i] = 40000.0;
  rungs[5] = 5000.0;  // one starved round
  Expect(pb::InterquartileMean(rungs) == 37500.0,
         "interquartile mean of rungs reads between them, past an outlier");
}

void TestWindowedTail() {
  // Four windows of 1000; one of them carries a 100x stall in its tail.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(100.0 + i % 10);
  }
  for (int i = 0; i < 50; ++i) v[1500 + i] = 10000.0;
  const pb::Tail windowed = pb::WindowedTail(v, 0.99, 1000);
  const pb::Tail whole = pb::SupportedTail(v, 0.99);
  Expect(whole.value == 10000.0, "one stalled window owns the plain p99");
  Expect(windowed.value == 109.0,
         "the median of window p99s ignores the one stalled window");
}

void TestChargedFromSlot() {
  // Ten slots 1 ms apart; the generator stalls until 9 ms at slot 2 and
  // then sends slots 2..8 late in a burst. The server answers 100 µs after each
  // send. Charged from the slot, the stall shows; from the send, it would
  // vanish.
  std::vector<double> charged, from_send;
  for (int64_t i = 0; i < 10; ++i) {
    const int64_t due = i * 1'000'000;
    const int64_t sent = (i >= 2 && i < 9) ? 9'000'000 : due;
    const int64_t recv = sent + 100'000;
    charged.push_back(pb::ChargedLatencyNs(due, sent, recv) / 1e3);
    from_send.push_back((recv - sent) / 1e3);
  }
  Expect(pb::Median(from_send) == 100.0, "send-based latency hides the stall");
  Expect(charged[2] == 7100.0 && pb::Median(charged) == 2100.0,
         "slot-based latency charges the stall to every delayed request");
}

void TestLateness() {
  std::vector<double> flat(300, 40.0), growing(300);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = 10.0 * i;
  Expect(!pb::LatenessGrows(flat, 1000), "flat send lag does not grow");
  Expect(pb::LatenessGrows(growing, 1000), "a lag ramp to 3 ms grows");
}

void TestLadder() {
  const double limit = 1000;
  auto rung = [](double qps, double tail) {
    pb::RungOutcome r;
    r.offered_qps = qps;
    r.tail_us = tail;
    return r;
  };
  std::vector<pb::RungOutcome> rs = {rung(1000, 200), rung(2000, 400),
                                     rung(3000, 1500), rung(4000, 300)};
  Expect(pb::MaxQpsAtSlo(rs, limit) == 2000,
         "ladder stops at the first rung over the p99 limit");
  rs[2].tail_us = 500;
  rs[2].failed = 1;
  Expect(pb::MaxQpsAtSlo(rs, limit) == 2000,
         "ladder stops at the first rung with a failure");
  rs[2].failed = 0;
  rs[2].lateness_grew = true;
  Expect(pb::MaxQpsAtSlo(rs, limit) == 2000,
         "ladder stops at the first rung whose lateness grows");
  rs[2].lateness_grew = false;
  rs[2].backlog_abort = true;
  Expect(pb::MaxQpsAtSlo(rs, limit) == 2000,
         "ladder stops at the first rung whose backlog overflows");
  rs[2].backlog_abort = false;
  Expect(pb::MaxQpsAtSlo(rs, limit) == 4000, "all rungs passing: the top");
  rs[0].tail_us = 5000;
  Expect(pb::MaxQpsAtSlo(rs, limit) == 0, "first rung failing: 0");
}

void TestLeastSteal() {
  const std::vector<double> steal = {0.05, 0.001, 0.02, 0.001, 0.3, 0.004};
  Expect(pb::QuietRounds(steal, 0.01, 2) == std::vector<size_t>({1, 3, 5}),
         "keeps every round under the quiet share, in round order");
  Expect(pb::QuietRounds(steal, 0.002, 2) == std::vector<size_t>({1, 3}),
         "the quiet share is a strict bound");
  Expect(pb::QuietRounds(steal, 0.0, 4) == std::vector<size_t>({1, 2, 3, 5}),
         "with too few quiet rounds, keeps the least-stolen ones");
  Expect(pb::QuietRounds(steal, 0.0, 1) == std::vector<size_t>({1}),
         "a tie goes to the earlier round");
  Expect(pb::QuietRounds(steal, 0.0, 9).size() == steal.size(),
         "keeping more rounds than ran keeps them all");
}

void TestChecker() {
  datagen::SyntheticConfig cfg;
  cfg.count = 3000;
  Dataset data = datagen::MakeSynthetic(cfg);
  EngineOptions eo;
  eo.num_threads = 2;
  QueryEngine engine(data, eo);
  QueryOptions opt;
  const std::vector<double> qs = datagen::MakeQueryPoints(32, 0, 10000, 5);
  std::vector<QueryRequest> batch;
  for (double q : qs) batch.push_back(PointQuery{q, opt});
  batch.push_back(KnnQuery{qs[0], 4, opt});
  std::vector<QueryResult> got = engine.ExecuteBatch(std::move(batch));
  bool all_match = true;
  size_t nonempty = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const auto ref = engine.executor().Execute(qs[i], opt).ids;
    all_match = all_match && pb::SameAnswer(got[i].ids, ref);
    if (!ref.empty()) nonempty = i;
  }
  const auto knn_ref =
      engine.executor().ExecuteKnn(qs[0], 4, opt.params, opt.integration).ids;
  Expect(all_match && pb::SameAnswer(got.back().ids, knn_ref),
         "engine answers match the sequential references");
  std::vector<ObjectId> corrupted = got[nonempty].ids;
  corrupted.back() += 1;
  const auto ref = engine.executor().Execute(qs[nonempty], opt).ids;
  Expect(!pb::SameAnswer(corrupted, ref), "checker flags a changed id");
  corrupted = got[nonempty].ids;
  corrupted.pop_back();
  Expect(!pb::SameAnswer(corrupted, ref), "checker flags a dropped id");
  corrupted = got[nonempty].ids;
  corrupted.push_back(corrupted.back() + 1);
  Expect(!pb::SameAnswer(corrupted, ref), "checker flags an extra id");
}

}  // namespace

int main() {
  TestSupportedTail();
  TestWindowedTail();
  TestChargedFromSlot();
  TestLateness();
  TestLadder();
  TestLeastSteal();
  TestChecker();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
