// pvbench: the repository benchmark's measuring program (see README.md).
//
//   pvbench --workload batch_point|serve_point|serve_skewed --seed N
//           --seconds S --trace 0|1 --set key=value ...
//
// The --set values are the workload's settings from workloads.json (run.py
// passes them); the settings all workloads share are constants below.
//
// Builds the paper's §V-A dataset (53,144 Long-Beach-like intervals,
// uniform pdfs), draws the workload's query inputs from --seed, sets the
// system up several times on each vCPU (setup_s), computes one reference
// answer per distinct request with the sequential executors, then measures
// for S seconds and checks every answer against its reference. A host
// calibration (fixed spin kernel at 1 and nproc threads) brackets the run;
// the result records whether it stayed in its band.
//
// With --trace 1 the same run additionally records the spans and counters
// the per-layer metrics come from — an Engine decorator timing Submit
// between net::Server and the engine, the phase/stage times every response
// carries, counter deltas, and a side pass of direct calls into the codec,
// the filter and candidate construction — and prints where p50/p99 goes.
// Every span is recorded from this file, around public calls; nothing under
// src/ is instrumented.
//
// The last stdout line is `RESULT {json}` with every metric; run.py picks
// the end-to-end or per-layer set from BENCHMARK.json.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/rng.h"
#include "core/candidate.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "spatial/filter.h"

using namespace pverify;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

// ------------------------------------------------------------ parameters --

// The same for every workload; workloads.json records them under "fixed".
constexpr size_t kWorkers = 2;       ///< QueryEngine worker threads
constexpr size_t kConnections = 2;   ///< client connections (serve workloads)
constexpr double kThreshold = 0.3;   ///< P
constexpr double kTolerance = 0.01;  ///< Δ
constexpr int kKnnK = 4;
/// k-NN requests of the closed-loop k-NN probe, which gives
/// knn_p50_us.high on every workload.
constexpr size_t kKnnProbe = 160;
constexpr double kZipfExponent = 1.0;  ///< serve_skewed's point ranks
constexpr double kSloP99Us = 10000;    ///< the ladder's p99 limit
/// A run is kRounds rounds of [low, high, ladder climb, k-NN probe slice];
/// a few seconds of host noise then spoil a round, not a whole phase, and
/// the metrics come from the rounds the hypervisor stole least from.
constexpr size_t kRounds = 12;
/// Rounds with less hypervisor steal than this are all kept (see main).
constexpr double kQuietSteal = 0.01;
/// Mean steal of the kept rounds above which the host starved the run.
constexpr double kStarvedSteal = 0.05;
constexpr size_t kBacklogCap = 6000;  ///< outstanding requests that fail a rung
constexpr size_t kSetupRepsPerCpu = 4;  ///< set-ups per run on each vCPU
constexpr int kCalibrationReps = 7;     ///< spins per calibration rate (best)

/// A run's arguments plus the settings that differ between workloads.
/// run.py passes the latter from workloads.json as --set key=value; each
/// key a workload uses is required and no other is accepted.
struct Params {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;

  size_t point_pool = 0;  ///< distinct query points (Zipf-ranked on serve_skewed)
  /// batch_point: batch sizes; serve workloads: offered rates in q/s.
  std::vector<double> ladder;
  // Shares of --seconds given to each phase.
  double low_share = 0, high_share = 0, ladder_share = 0;
  // Serve workloads only.
  double low_qps = 0, high_qps = 0;
  size_t cache_capacity = 0;  ///< CachingEngine entries; 0 = no cache
  double knn_share = 0;       ///< share of k-NN requests in the mix

  bool serve() const { return workload != "batch_point"; }
  bool skewed() const { return workload == "serve_skewed"; }
};

std::vector<double> ParseList(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::runtime_error("empty list: " + s);
  return out;
}

Params ParseArgs(int argc, char** argv) {
  Params p;
  bool have_seed = false, have_seconds = false;
  std::map<std::string, std::string> sets;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") p.workload = v;
    else if (a == "--seed") p.seed = std::stoull(v), have_seed = true;
    else if (a == "--seconds") p.seconds = std::stod(v), have_seconds = true;
    else if (a == "--trace") p.trace = v == "1";
    else if (a == "--set") {
      const size_t eq = v.find('=');
      if (eq == std::string::npos) throw std::runtime_error("bad --set " + v);
      sets[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  if (p.workload != "batch_point" && p.workload != "serve_point" &&
      p.workload != "serve_skewed") {
    throw std::runtime_error("unknown workload '" + p.workload + "'");
  }
  if (!have_seed || !have_seconds) {
    throw std::runtime_error("--seed and --seconds are required");
  }
  if (p.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  auto take = [&](const char* key) {
    auto it = sets.find(key);
    if (it == sets.end()) {
      throw std::runtime_error(std::string("missing --set ") + key + "=...");
    }
    std::string v = it->second;
    sets.erase(it);
    return v;
  };
  p.point_pool = std::stoull(take("point_pool"));
  p.ladder = ParseList(take("ladder"));
  p.low_share = std::stod(take("low_share"));
  p.high_share = std::stod(take("high_share"));
  p.ladder_share = std::stod(take("ladder_share"));
  if (p.serve()) {
    p.low_qps = std::stod(take("low_qps"));
    p.high_qps = std::stod(take("high_qps"));
    p.cache_capacity = std::stoull(take("cache_capacity"));
    p.knn_share = std::stod(take("knn_share"));
  }
  if (!sets.empty()) {
    throw std::runtime_error("--set " + sets.begin()->first +
                             " does not apply to " + p.workload);
  }
  return p;
}

// ------------------------------------------------------ host calibration --

/// Mops/s of a fixed integer spin kernel run on `threads` threads at once.
double SpinMops(size_t threads, uint64_t iters = 40'000'000) {
  std::atomic<uint64_t> sink{0};
  const int64_t t0 = NowNs();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, iters] {
      uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      for (uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  const double us = static_cast<double>(NowNs() - t0) / 1e3;
  return static_cast<double>(threads * iters) / us;
}

/// Spins every vCPU until their parallel throughput settles (at most
/// ~5 s). On virtual machines whose vCPUs idle for a few seconds, nproc
/// threads at first run at little more than one core's rate and ramp up
/// over ~1.5 s of sustained load; measuring before that would time the
/// ramp, not the program.
void WarmHost(size_t nproc) {
  const double st = SpinMops(1, 10'000'000);
  const double warm = 0.6 * static_cast<double>(nproc) * st;
  const int64_t give_up = NowNs() + 5'000'000'000;
  for (int streak = 0; streak < 3 && NowNs() < give_up;) {
    streak = SpinMops(nproc, 10'000'000) >= warm ? streak + 1 : 0;
  }
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Runs `fn` on the calling thread pinned to `cpu`, then lets the thread
/// run anywhere in `allowed` again. Threads started inside `fn` inherit
/// the pin, so `fn` must join every thread it starts.
template <typename Fn>
void OnCpu(int cpu, const std::vector<int>& allowed, Fn&& fn) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  fn();
  CPU_ZERO(&set);
  for (int c : allowed) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins the i-th thread of the process (by thread id) to
/// cpus[(i + turn) % n], or, with `turn` < 0, lets every thread run
/// anywhere in `cpus` again.
void PlaceThreads(const std::vector<int>& cpus, int turn) {
  std::vector<pid_t> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  std::sort(tids.begin(), tids.end());
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (turn < 0) {
      for (int c : cpus) CPU_SET(c, &set);
    } else {
      CPU_SET(cpus[(i + static_cast<size_t>(turn)) % cpus.size()], &set);
    }
    sched_setaffinity(tids[i], sizeof(set), &set);
  }
}

/// The best of kCalibrationReps spin rates (about 0.6 s in all): what the
/// host gives when it gives its most. Other tenants take the vCPUs for
/// half a second now and then, and slow some vCPUs more than others; only
/// a host that starves every spin is starved. Single-threaded spins take
/// the allowed CPUs in turn.
double CalibratedMops(size_t threads, const std::vector<int>& cpus) {
  double best = 0;
  for (int i = 0; i < kCalibrationReps; ++i) {
    double mops = 0;
    if (threads == 1) {
      OnCpu(cpus[i % cpus.size()], cpus, [&] { mops = SpinMops(1); });
    } else {
      mops = SpinMops(threads);
    }
    best = std::max(best, mops);
  }
  return best;
}

struct Calibration {
  size_t nproc = 1;
  double st_before = 0, mt_before = 0, st_after = 0, mt_after = 0;
  double kept_steal = 0;  ///< mean steal share of the rounds kept
  /// The band a comparable run stays in: each rate within ±20% of its
  /// pre-run value, nproc threads reaching at least half of nproc × the
  /// single-thread rate (less means other tenants starve us), and the
  /// kept rounds' steal under kStarvedSteal. The spins catch a host whose
  /// capacity moved; the steal catches one that took the vCPUs away for
  /// the whole run, which best-of spins before and after can miss.
  bool Valid() const {
    auto near = [](double a, double b) { return a >= 0.8 * b && a <= 1.25 * b; };
    const double n = static_cast<double>(nproc);
    return near(st_after, st_before) && near(mt_after, mt_before) &&
           mt_before >= 0.5 * n * st_before && mt_after >= 0.5 * n * st_after &&
           kept_steal <= kStarvedSteal;
  }
};

// ---------------------------------------------------------------- inputs --

/// One request of a workload: a point C-PNN over a pool point or a k-NN
/// at one of the (never repeated) k-NN points.
struct Req {
  bool knn = false;
  uint32_t idx = 0;
};

struct Inputs {
  std::vector<double> points;      ///< the distinct point pool
  std::vector<double> knn_points;  ///< one per k-NN request, distinct
  std::vector<double> zipf_cdf;    ///< serve_skewed: rank cdf over the pool
};

class Drawer {
 public:
  Drawer(const Params& p, Inputs* in, uint64_t salt)
      : p_(p), in_(in), rng_(p.seed * 0x9e3779b97f4a7c15ULL + salt) {}

  Req Next() {
    Req r;
    if (p_.knn_share > 0 && rng_.Bernoulli(p_.knn_share)) {
      r.knn = true;
      r.idx = static_cast<uint32_t>(in_->knn_points.size());
      in_->knn_points.push_back(rng_.Uniform(0.0, 10000.0));
      return r;
    }
    if (in_->zipf_cdf.empty()) {
      r.idx = static_cast<uint32_t>(
          rng_.UniformInt(0, static_cast<int64_t>(in_->points.size()) - 1));
    } else {
      const double u = rng_.Uniform(0.0, 1.0);
      r.idx = static_cast<uint32_t>(
          std::lower_bound(in_->zipf_cdf.begin(), in_->zipf_cdf.end(), u) -
          in_->zipf_cdf.begin());
      r.idx = std::min<uint32_t>(r.idx, in_->points.size() - 1);
    }
    return r;
  }

  std::vector<Req> Draw(size_t n) {
    std::vector<Req> out(n);
    for (Req& r : out) r = Next();
    return out;
  }

 private:
  const Params& p_;
  Inputs* in_;
  Rng rng_;
};

/// Sets xs[0..n) to points first..first+n-1 of the golden-ratio
/// (Kronecker) sequence over [lo, hi), in an order a seeded shuffle
/// decides. A prefix of the sequence covers the range evenly for every n,
/// and a run with a few more k-NN requests than another adds points rather
/// than moving them all.
void SpreadEvenly(double* xs, size_t n, size_t first, double lo, double hi,
                  Rng rng) {
  constexpr double kGoldenFraction = 0.6180339887498949;
  for (size_t i = 0; i < n; ++i) {
    const double u = std::fmod(
        0.5 + kGoldenFraction * static_cast<double>(first + i), 1.0);
    xs[i] = lo + (hi - lo) * u;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(xs[i - 1], xs[static_cast<size_t>(
                             rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

QueryRequest MakeRequest(const Req& r, const Inputs& in,
                         const QueryOptions& opt) {
  if (r.knn) return KnnQuery{in.knn_points[r.idx], kKnnK, opt};
  return PointQuery{in.points[r.idx], opt};
}

// ------------------------------------------------------------ references --

struct References {
  std::vector<std::vector<ObjectId>> point;
  std::vector<std::vector<ObjectId>> knn;

  const std::vector<ObjectId>& For(const Req& r) const {
    return r.knn ? knn[r.idx] : point[r.idx];
  }
};

/// One reference per distinct request, from the sequential executors,
/// fanned over nproc threads (off the clock).
References ComputeReferences(const CpnnExecutor& ex, const Inputs& in,
                             const std::vector<const std::vector<Req>*>& seqs,
                             const QueryOptions& opt) {
  References refs;
  refs.point.resize(in.points.size());
  refs.knn.resize(in.knn_points.size());
  std::vector<Req> todo;
  std::vector<char> seen_point(in.points.size(), 0);
  std::vector<char> seen_knn(in.knn_points.size(), 0);
  for (const std::vector<Req>* seq : seqs) {
    for (const Req& r : *seq) {
      char& seen = r.knn ? seen_knn[r.idx] : seen_point[r.idx];
      if (!seen) {
        seen = 1;
        todo.push_back(r);
      }
    }
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < todo.size(); i = next++) {
        const Req& r = todo[i];
        if (r.knn) {
          refs.knn[r.idx] =
              ex.ExecuteKnn(in.knn_points[r.idx], kKnnK, opt.params,
                            opt.integration)
                  .ids;
        } else {
          refs.point[r.idx] = ex.Execute(in.points[r.idx], opt).ids;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return refs;
}

// ------------------------------------------------------------------- rig --

/// Benchmark-owned Engine decorator placed between net::Server and the
/// engine in the traced run: times every Submit call (the span of the
/// engine layer's admission, seen from outside).
class SubmitTimer : public Engine {
 public:
  explicit SubmitTimer(Engine& inner) : inner_(inner) {}
  size_t num_threads() const override { return inner_.num_threads(); }
  QueryResult Execute(QueryRequest r) override {
    return inner_.Execute(std::move(r));
  }
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> r,
                                        EngineStats* s) override {
    return inner_.ExecuteBatch(std::move(r), s);
  }
  std::future<QueryResult> Submit(QueryRequest r) override {
    const int64_t t0 = NowNs();
    std::future<QueryResult> f = inner_.Submit(std::move(r));
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_ns_.push_back(static_cast<float>(t1 - t0));
    return f;
  }
  SubmitQueueStats SubmitStats() const override {
    return inner_.SubmitStats();
  }
  size_t ScratchQueriesServed() const override {
    return inner_.ScratchQueriesServed();
  }
  size_t ScratchBytes() const override { return inner_.ScratchBytes(); }

  std::vector<float> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_ns_);
  }

 private:
  Engine& inner_;
  std::mutex mu_;
  std::vector<float> spans_ns_;
};

/// Everything set-up builds. Members are destroyed bottom-up: the server
/// stops before the engines it serves.
struct Rig {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<CachingEngine> cache;
  std::unique_ptr<SubmitTimer> timer;
  std::unique_ptr<net::Server> server;

  Engine& Front() {
    if (cache) return *cache;
    return *engine;
  }
};

/// Builds the rig. Dataset generation and index construction, the
/// single-threaded part, run pinned to `cpu` (see the set-up in main).
std::unique_ptr<Rig> BuildRig(const Params& p, Inputs& in,
                              const QueryOptions& opt, int cpu,
                              const std::vector<int>& allowed) {
  auto rig = std::make_unique<Rig>();
  EngineOptions eo;
  eo.num_threads = kWorkers;
  OnCpu(cpu, allowed, [&] {
    // Starts no thread: the engine's pool and dispatcher start lazily.
    rig->engine = std::make_unique<QueryEngine>(
        datagen::MakeLongBeachLike(datagen::PdfKind::kUniform), eo);
  });
  // Lazy set-up (pool threads, submit dispatchers) happens here, not on
  // the clock.
  std::vector<QueryRequest> warm;
  for (size_t i = 0; i < 2 * kWorkers; ++i) {
    warm.push_back(PointQuery{in.points[i % in.points.size()], opt});
  }
  rig->engine->ExecuteBatch(std::move(warm));
  if (!p.serve()) return rig;

  if (p.cache_capacity > 0) {
    CachingEngineOptions co;
    co.capacity = p.cache_capacity;
    rig->cache = std::make_unique<CachingEngine>(*rig->engine, co);
    // Cache warm-up: a Zipf stream four times the capacity, so the
    // measured window starts at the hit rate it will keep.
    Params no_knn = p;
    no_knn.knn_share = 0.0;
    Drawer points_only(no_knn, &in, 0x5741524d);
    const std::vector<Req> stream = points_only.Draw(4 * p.cache_capacity);
    for (size_t i = 0; i < stream.size(); i += 256) {
      std::vector<QueryRequest> batch;
      for (size_t j = i; j < std::min(stream.size(), i + 256); ++j) {
        batch.push_back(MakeRequest(stream[j], in, opt));
      }
      rig->cache->ExecuteBatch(std::move(batch));
    }
  }
  rig->engine->Submit(PointQuery{in.points[0], opt}).get();
  if (rig->cache) rig->cache->Submit(PointQuery{in.points[0], opt}).get();
  Engine* served = &rig->Front();
  if (p.trace) {
    rig->timer = std::make_unique<SubmitTimer>(rig->Front());
    served = rig->timer.get();
  }
  // Admission caps well above the backlog that fails a ladder rung
  // (kBacklogCap), so a k-NN stall shows as latency, not as rejections.
  net::ServerOptions so;
  so.max_inflight_per_conn = 8192;
  so.max_pending = 16384;
  rig->server = std::make_unique<net::Server>(*served, so);
  rig->server->Start();
  return rig;
}

// ------------------------------------------------------- per-query spans --

/// The core layer's share of one request, copied from the QueryStats its
/// result carries (traced run only).
struct CoreRec {
  float filter = 0, init = 0, verify = 0, refine = 0, total = 0;
  float rs = 0, lsr = 0, usr = 0;
  uint32_t candidates = 0, subregions = 0, refined = 0, integrations = 0;
  bool verified = false;
  bool valid = false;
};

CoreRec ToCoreRec(const QueryStats& s) {
  CoreRec c;
  c.filter = static_cast<float>(s.filter_ms * 1e3);
  c.init = static_cast<float>(s.init_ms * 1e3);
  c.verify = static_cast<float>(s.verify_ms * 1e3);
  c.refine = static_cast<float>(s.refine_ms * 1e3);
  c.total = static_cast<float>(s.total_ms * 1e3);
  for (const StageStats& st : s.verification.stages) {
    const float us = static_cast<float>(st.ms * 1e3);
    if (st.name == "RS") c.rs += us;
    else if (st.name == "L-SR") c.lsr += us;
    else if (st.name == "U-SR") c.usr += us;
  }
  c.candidates = static_cast<uint32_t>(s.candidates);
  c.subregions = static_cast<uint32_t>(s.num_subregions);
  c.refined = static_cast<uint32_t>(s.refined_candidates);
  c.integrations = static_cast<uint32_t>(s.subregion_integrations);
  c.verified = s.finished_after_verification;
  c.valid = true;
  return c;
}

// ------------------------------------------------------------- open loop --

enum : uint8_t { kPending = 0, kOk = 1, kFailed = 2 };

/// One scheduled request of an open-loop phase (the client request span).
struct Rec {
  int64_t due = 0;
  int64_t sent = -1;
  int64_t recv = -1;
  float engine_us = 0;
  uint8_t state = kPending;
  uint8_t tries = 0;
  bool cached = false;
};

struct Conn {
  std::unique_ptr<net::Client> client;
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> frames_recv{0};
  std::atomic<bool> dead{false};
};

struct Phase {
  double offered_qps = 0;
  const std::vector<Req>* reqs = nullptr;
  std::vector<Rec> recs;
  std::vector<CoreRec> core;
  int64_t start = 0;
  int64_t end = 0;
  size_t slots = 0;  ///< slots actually scheduled (fewer on backlog abort)
  bool backlog_abort = false;
  size_t retries = 0;
  size_t wrong = 0;
};

/// Samples per window of the windowed latency quantiles.
constexpr size_t kTailWindow = 1000;
/// Re-sends of a request answered with a retryable error code before it
/// counts as failed.
constexpr uint8_t kRetryBudget = 5;
/// Growth of the median send lag over a rung that fails it (see
/// LatenessGrows).
constexpr double kLatenessToleranceUs = 1000;

constexpr uint64_t kSlotMask = 0xffffffffULL;
constexpr uint64_t kSentinelSlot = kSlotMask;

class OpenLoop {
 public:
  OpenLoop(const Params& p, const Inputs& in, const References& refs,
           const QueryOptions& opt, uint16_t port)
      : p_(p), in_(in), refs_(refs), opt_(opt) {
    net::ClientOptions co;
    co.recv_timeout_ms = 30000;
    for (size_t c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->client = net::Client::ConnectUnique("127.0.0.1", port, co);
      conns_.push_back(std::move(conn));
    }
  }

  ~OpenLoop() {
    for (auto& c : conns_) {
      if (!c->dead) c->client->Close();
    }
  }

  /// Fires `n` requests at `rate` on a fixed schedule, spread round-robin
  /// over the connections by one sender (this thread) while one receiver
  /// per connection drains responses. `abortable` phases stop scheduling
  /// when the backlog passes its cap (a ladder rung that is failing).
  void Run(Phase& ph, size_t n, bool abortable) {
    ++gen_;
    const size_t conns = conns_.size();
    ph.recs.assign(n, Rec{});
    if (p_.trace) ph.core.assign(n, CoreRec{});
    const double interval_ns = 1e9 / ph.offered_qps;
    ph.start = NowNs() + 2'000'000;  // receivers up before the first slot
    for (size_t i = 0; i < n; ++i) {
      ph.recs[i].due = ph.start + static_cast<int64_t>(interval_ns * i);
    }
    std::vector<std::thread> receivers;
    std::vector<size_t> retries(conns, 0), wrong(conns, 0);
    for (size_t c = 0; c < conns; ++c) {
      receivers.emplace_back(
          [&, c] { Receive(ph, c, &retries[c], &wrong[c]); });
    }
    size_t i = 0;
    for (; i < n; ++i) {
      Rec& rec = ph.recs[i];
      SleepUntilNs(rec.due);
      if (abortable && Outstanding() > kBacklogCap) {
        ph.backlog_abort = true;
        break;
      }
      Conn& conn = *conns_[i % conns];
      if (conn.dead) {
        rec.state = kFailed;
        continue;
      }
      rec.sent = NowNs();
      conn.frames_sent.fetch_add(1);
      try {
        conn.client->SendWithId(
            MakeRequest((*ph.reqs)[i], in_, opt_), Id(i, 0));
      } catch (const net::WireError&) {
        conn.dead = true;
      }
    }
    ph.slots = i;
    // A sentinel per connection: its response wakes the receiver after
    // the last real one, so no receiver blocks on a frame that never comes.
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      conn->frames_sent.fetch_add(1);
      try {
        conn->client->SendWithId(MinQuery{opt_}, Id(kSentinelSlot, 0));
      } catch (const net::WireError&) {
        conn->dead = true;
      }
    }
    for (std::thread& t : receivers) t.join();
    ph.end = NowNs();
    ph.recs.resize(ph.slots);
    if (p_.trace) ph.core.resize(ph.slots);
    for (Rec& rec : ph.recs) {
      if (rec.state == kPending) rec.state = kFailed;  // lost with its conn
    }
    ph.retries = std::accumulate(retries.begin(), retries.end(), size_t{0});
    ph.wrong = std::accumulate(wrong.begin(), wrong.end(), size_t{0});
  }

  /// Closed-loop k-NN probe over connection 0 (idle server): round trips
  /// in µs, with the engine time each response carries in `engine_us`.
  /// Each answer is checked; `failed` counts misses of any kind and `wrong`
  /// the answers that differ from their reference.
  std::vector<double> Probe(const std::vector<Req>& reqs, size_t* failed,
                            size_t* wrong, std::vector<double>* engine_us) {
    ++gen_;
    std::vector<double> lat;
    Conn& conn = *conns_[0];
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (conn.dead) {
        ++*failed;
        continue;
      }
      try {
        const int64_t t0 = NowNs();
        conn.client->SendWithId(MakeRequest(reqs[i], in_, opt_),
                                Id(i, 0));
        net::ServeResponse r = conn.client->ReadNext();
        const int64_t t1 = NowNs();
        if (!r.ok) {
          ++*failed;
        } else if (!pb::SameAnswer(r.result.ids, refs_.For(reqs[i]))) {
          ++*failed;
          ++*wrong;
        } else {
          lat.push_back(static_cast<double>(t1 - t0) / 1e3);
          engine_us->push_back(r.result.stats.total_ms * 1e3);
        }
      } catch (const net::WireError&) {
        conn.dead = true;
        ++*failed;
      }
    }
    return lat;
  }

 private:
  uint64_t Id(uint64_t slot, uint64_t tries) const {
    return (gen_ << 40) | (tries << 32) | slot;
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const auto& c : conns_) n += c->frames_sent - c->frames_recv;
    return n;
  }

  void Receive(Phase& ph, size_t c, size_t* retries, size_t* wrong) {
    Conn& conn = *conns_[c];
    size_t refused = 0;
    bool sentinel_seen = false;
    while (!conn.dead) {
      // Past the sentinel only this thread sends (retries), so the count
      // of outstanding frames cannot grow behind its back.
      if (sentinel_seen && conn.frames_recv == conn.frames_sent) break;
      net::ServeResponse resp;
      try {
        resp = conn.client->ReadNext();
      } catch (const net::WireError& e) {
        std::fprintf(stderr, "pvbench: connection %zu lost: %s\n", c,
                     e.what());
        conn.dead = true;
        break;
      }
      const int64_t now = NowNs();
      conn.frames_recv.fetch_add(1);
      if ((resp.request_id >> 40) != gen_) continue;
      const uint64_t slot = resp.request_id & kSlotMask;
      if (slot == kSentinelSlot) {
        sentinel_seen = true;
        continue;
      }
      Rec& rec = ph.recs[slot];
      const Req& req = (*ph.reqs)[slot];
      if (!resp.ok) {
        if (net::IsRetryable(resp.code) && rec.tries < kRetryBudget) {
          ++rec.tries;
          ++*retries;
          conn.frames_sent.fetch_add(1);
          try {
            conn.client->SendWithId(MakeRequest(req, in_, opt_),
                                    Id(slot, rec.tries));
            continue;
          } catch (const net::WireError&) {
            conn.dead = true;
          }
        }
        if (++refused <= 3) {
          std::fprintf(stderr, "pvbench: request failed: %s\n",
                       resp.error.c_str());
        }
        rec.state = kFailed;
        continue;
      }
      if (!pb::SameAnswer(resp.result.ids, refs_.For(req))) {
        if (++*wrong <= 3) {
          std::fprintf(stderr, "pvbench: WRONG ANSWER for %s q=%.17g\n",
                       req.knn ? "knn" : "point",
                       req.knn ? in_.knn_points[req.idx] : in_.points[req.idx]);
        }
        rec.state = kFailed;
        continue;
      }
      rec.recv = now;
      rec.state = kOk;
      rec.engine_us = static_cast<float>(resp.result.stats.total_ms * 1e3);
      rec.cached = resp.result.stats.served_from_cache;
      if (p_.trace) ph.core[slot] = ToCoreRec(resp.result.stats);
    }
  }

  const Params& p_;
  const Inputs& in_;
  const References& refs_;
  const QueryOptions& opt_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t gen_ = 0;
};

// --------------------------------------------------------- phase summary --

struct Summary {
  void Append(const Summary& s) {
    attempted += s.attempted;
    ok += s.ok;
    failed += s.failed;
    auto cat = [](std::vector<double>& into, const std::vector<double>& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    cat(point_us, s.point_us);
    cat(knn_us, s.knn_us);
    cat(cached_us, s.cached_us);
    cat(overhead_us, s.overhead_us);
    cat(lag_us, s.lag_us);
    cat(engine_us, s.engine_us);
    engine_ms += s.engine_ms;
    wall_s += s.wall_s;
  }

  size_t attempted = 0, ok = 0, failed = 0;
  std::vector<double> point_us;   ///< round trips of point requests, by due
  std::vector<double> knn_us;
  std::vector<double> cached_us;  ///< round trips served from the cache
  std::vector<double> overhead_us;  ///< round trip − engine total (uncached)
  std::vector<double> lag_us;     ///< send lag, in send order
  std::vector<double> engine_us;  ///< engine total of computed point results
  double engine_ms = 0;           ///< Σ engine total_ms of computed results
  double wall_s = 0;
  int64_t last_recv = 0;
};

Summary Summarize(const Phase& ph) {
  Summary s;
  s.attempted = ph.recs.size();
  s.last_recv = ph.start;
  for (size_t i = 0; i < ph.recs.size(); ++i) {
    const Rec& r = ph.recs[i];
    if (r.sent >= 0) s.lag_us.push_back(static_cast<double>(r.sent - r.due) / 1e3);
    if (r.state != kOk) {
      ++s.failed;
      continue;
    }
    ++s.ok;
    const double us =
        static_cast<double>(pb::ChargedLatencyNs(r.due, r.sent, r.recv)) / 1e3;
    s.last_recv = std::max(s.last_recv, r.recv);
    if ((*ph.reqs)[i].knn) {
      s.knn_us.push_back(us);
    } else {
      s.point_us.push_back(us);
      if (r.cached) s.cached_us.push_back(us);
    }
    if (!r.cached) {
      s.engine_ms += r.engine_us / 1e3;
      if (!(*ph.reqs)[i].knn) {
        s.overhead_us.push_back(us - r.engine_us);
        s.engine_us.push_back(r.engine_us);
      }
    }
  }
  s.wall_s = static_cast<double>(ph.end - ph.start) / 1e9;
  return s;
}

// ------------------------------------------------------------ batch loop --

struct BatchRun {
  std::vector<double> batch_us;  ///< per-batch wall latency, in time order
  size_t queries = 0;
  size_t failed = 0;
  double wall_s = 0;
  double engine_ms = 0;
  std::vector<CoreRec> core;
};

/// Closed loop: one caller issues ExecuteBatch back to back, `b` requests
/// per batch, for `seconds`; every result is checked.
BatchRun RunBatchLoop(QueryEngine& engine, const std::vector<Req>& seq,
                      size_t* pos, size_t b, double seconds,
                      const Inputs& in, const References& refs,
                      const QueryOptions& opt, const Params& p) {
  BatchRun run;
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(seconds * 1e9);
  std::vector<Req> batch_reqs(b);
  while (NowNs() < t_end || run.batch_us.empty()) {
    std::vector<QueryRequest> batch;
    batch.reserve(b);
    for (size_t j = 0; j < b; ++j) {
      batch_reqs[j] = seq[(*pos)++ % seq.size()];
      batch.push_back(MakeRequest(batch_reqs[j], in, opt));
    }
    const int64_t t0 = NowNs();
    std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
    const int64_t t1 = NowNs();
    run.batch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    for (size_t j = 0; j < b; ++j) {
      ++run.queries;
      if (!pb::SameAnswer(results[j].ids, refs.For(batch_reqs[j]))) {
        ++run.failed;
        continue;
      }
      run.engine_ms += results[j].stats.total_ms;
      if (p.trace) run.core.push_back(ToCoreRec(results[j].stats));
    }
  }
  run.wall_s = static_cast<double>(NowNs() - t_start) / 1e9;
  return run;
}

// ----------------------------------------------------------- side passes --

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Returns freed heap to the system and restarts the kernel's RSS
/// high-water mark at the current RSS, so PeakRssMb covers only what runs
/// after this call. False where the kernel does not allow the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// The RSS high-water mark (VmHWM) of the process, in MB.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

size_t ThreadCount() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

/// Mean ns per call of `fn(i)` over `items` calls, repeated `reps` times.
template <typename Fn>
double NsPerCall(size_t items, size_t reps, Fn&& fn) {
  const int64_t t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    for (size_t i = 0; i < items; ++i) fn(i);
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(items * reps);
}

/// CPU time the hypervisor gave to someone else while this VM's vCPUs
/// wanted to run ("steal", from /proc/stat), as a share of all vCPU time
/// between two readings. 0 where the kernel does not report it.
struct StealMeter {
  uint64_t steal = 0, total = 0;

  static StealMeter Read() {
    StealMeter m;
    if (FILE* f = std::fopen("/proc/stat", "r")) {
      unsigned long long v[8] = {0};
      if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        m.steal = v[7];
        for (unsigned long long x : v) m.total += x;
      }
      std::fclose(f);
    }
    return m;
  }

  double ShareSince(const StealMeter& before) const {
    const uint64_t dt = total - before.total;
    return dt > 0 ? static_cast<double>(steal - before.steal) / dt : 0.0;
  }
};

using Metrics = std::map<std::string, double>;

/// Direct, timed calls into net's codec, spatial's filter and core's
/// candidate construction on the workload's own query points.
void SidePass(const Params& p, const Inputs& in, const QueryEngine& engine,
              const QueryOptions& opt, Metrics& m) {
  const CpnnExecutor& ex = engine.executor();
  const size_t n = std::min<size_t>(256, in.points.size());
  std::vector<QueryRequest> reqs;
  std::vector<QueryResult> results;
  std::vector<std::vector<uint8_t>> req_bytes, res_bytes;
  double frame_bytes = 0, candidates = 0, answers = 0;
  for (size_t i = 0; i < n; ++i) {
    reqs.push_back(PointQuery{in.points[i], opt});
    results.push_back(ToQueryResult(ex.Execute(in.points[i], opt)));
    net::WireWriter w;
    net::EncodeRequest(reqs.back(), w);
    req_bytes.push_back(w.bytes());
    net::WireWriter rw;
    net::EncodeResult(results.back(), rw);
    res_bytes.push_back(rw.bytes());
    frame_bytes += static_cast<double>(rw.size() + net::kFrameHeaderBytes +
                                       net::kFrameChecksumBytes);
    candidates += static_cast<double>(results.back().stats.candidates);
    answers += static_cast<double>(results.back().ids.size());
  }
  size_t sink = 0;
  m["net.encode_request_ns"] = NsPerCall(n, 20, [&](size_t i) {
    net::WireWriter w;
    net::EncodeRequest(reqs[i], w);
    sink += w.size();
  });
  m["net.decode_request_ns"] = NsPerCall(n, 20, [&](size_t i) {
    net::WireReader r(req_bytes[i].data(), req_bytes[i].size());
    QueryRequest q = net::DecodeRequest(r);
    sink += q.query.index();
  });
  m["net.encode_result_ns"] = NsPerCall(n, 20, [&](size_t i) {
    net::WireWriter w;
    net::EncodeResult(results[i], w);
    sink += w.size();
  });
  m["net.decode_result_ns"] = NsPerCall(n, 20, [&](size_t i) {
    net::WireReader r(res_bytes[i].data(), res_bytes[i].size());
    QueryResult q = net::DecodeResult(r);
    sink += q.ids.size();
  });
  m["net.response_bytes"] = frame_bytes / n;
  std::vector<FilterResult> filtered(n);
  m["spatial.filter_us"] = NsPerCall(n, 5, [&](size_t i) {
    filtered[i] = ex.Filter(in.points[i]);
  }) / 1e3;
  m["spatial.candidates_per_answer"] = answers > 0 ? candidates / answers : 0;
  m["core.build1d_us"] = NsPerCall(n, 5, [&](size_t i) {
    CandidateSet set = CandidateSet::Build1D(ex.dataset(), filtered[i].candidates,
                                             in.points[i]);
    sink += set.size();
  }) / 1e3;
  Rng rng(p.seed ^ 0x4b4e4e46);
  std::vector<double> knn_q(16);
  for (double& q : knn_q) q = rng.Uniform(0.0, 10000.0);
  m["spatial.knn_filter_us"] = NsPerCall(knn_q.size(), 3, [&](size_t i) {
    sink += FilterKByScan(ex.dataset(), knn_q[i], kKnnK).candidates.size();
  }) / 1e3;
  if (sink == 42) std::printf("#\n");  // keeps the timed calls observable
}

/// Per-layer metrics of the core layer: means over the traced queries, so
/// the phases add up to the total (the paper's Fig. 11 and Fig. 12 split).
void CoreMetrics(const std::vector<CoreRec>& recs, Metrics& m) {
  double f = 0, i = 0, v = 0, r = 0, t = 0, rs = 0, lsr = 0, usr = 0;
  double cand = 0, sub = 0, verified = 0, refined = 0, integ = 0, n = 0;
  for (const CoreRec& c : recs) {
    if (!c.valid) continue;
    f += c.filter; i += c.init; v += c.verify; r += c.refine; t += c.total;
    rs += c.rs; lsr += c.lsr; usr += c.usr;
    cand += c.candidates; sub += c.subregions; verified += c.verified;
    refined += c.refined; integ += c.integrations;
    n += 1;
  }
  if (n == 0) n = 1;
  m["core.filter_us"] = f / n;
  m["core.init_us"] = i / n;
  m["core.verify_us"] = v / n;
  m["core.refine_us"] = r / n;
  m["core.total_us"] = t / n;
  m["core.unattributed_us"] = (t - f - i - v - r) / n;
  m["core.stage.RS_us"] = rs / n;
  m["core.stage.L-SR_us"] = lsr / n;
  m["core.stage.U-SR_us"] = usr / n;
  m["core.candidates"] = cand / n;
  m["core.subregions"] = sub / n;
  m["core.verified_frac"] = verified / n;
  m["core.refined_candidates"] = refined / n;
  m["core.subregion_integrations"] = integ / n;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void PrintWhereTimeGoes(const char* title, const std::vector<double>& rt,
                        const std::vector<double>& overhead,
                        const std::vector<double>& engine_us,
                        const std::vector<double>& lag) {
  std::printf("# where p50/p99 goes (%s, µs)\n", title);
  std::printf("#   %-34s %10s %10s\n", "span", "p50", "p99");
  auto row = [](const char* name, const std::vector<double>& v) {
    std::printf("#   %-34s %10.1f %10.1f\n", name, pb::Median(v),
                pb::SupportedTail(v, 0.99).value);
  };
  row("client round trip (from slot)", rt);
  row("engine total_ms (in response)", engine_us);
  row("outside engine (net+queue+sched)", overhead);
  if (!lag.empty()) row("  of which generator send lag", lag);
}

}  // namespace

// ------------------------------------------------------------------ main --

int main(int argc, char** argv) try {
  const Params p = ParseArgs(argc, argv);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) throw std::runtime_error("sched_getaffinity failed");
  const size_t nproc = cpus.size();
  Calibration cal;
  cal.nproc = nproc;
  WarmHost(nproc);
  cal.st_before = CalibratedMops(1, cpus);
  cal.mt_before = CalibratedMops(nproc, cpus);

  QueryOptions opt;
  opt.params = {kThreshold, kTolerance};
  opt.strategy = Strategy::kVR;

  // ---- inputs, all drawn from --seed, before anything is timed ----
  Inputs in;
  in.points = datagen::MakeQueryPoints(
      p.point_pool, 0.0, 10000.0, p.seed);
  if (p.skewed()) {
    in.zipf_cdf.resize(in.points.size());
    double acc = 0;
    for (size_t r = 0; r < in.points.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      in.zipf_cdf[r] = acc;
    }
    for (double& c : in.zipf_cdf) c /= acc;
  }
  const size_t R = kRounds;
  const double round_s = p.seconds / static_cast<double>(R);
  const std::vector<double>& ladder = p.ladder;
  // Seconds per ladder rung: the serve ladder's rungs share ladder_share of
  // a round (a climb that stops early leaves time unused, never overruns);
  // the batch ladder's middle rungs share it, its ends being the low and
  // high loops.
  const double rung_s =
      p.serve() ? p.ladder_share * round_s / ladder.size()
                : p.ladder_share * round_s / std::max<size_t>(1, ladder.size() - 2);
  struct Round {
    std::vector<Req> low, high, probe;
    std::vector<std::vector<Req>> rungs;
  };
  std::vector<Round> rounds(R);
  Drawer draw(p, &in, 1);
  // The ladder offers point requests only: where a climb stops must not
  // hang on which k-NN requests (tens of ms each) a rung happens to draw.
  Params points_only = p;
  points_only.knn_share = 0.0;
  Drawer draw_rungs(points_only, &in, 2);
  std::vector<Req> batch_seq;  // batch_point: one sequence, cycled
  if (p.serve()) {
    for (Round& rd : rounds) {
      rd.low = draw.Draw(static_cast<size_t>(p.low_qps * p.low_share * round_s));
      rd.high = draw.Draw(static_cast<size_t>(p.high_qps * p.high_share * round_s));
      for (double rate : ladder) {
        rd.rungs.push_back(draw_rungs.Draw(static_cast<size_t>(rate * rung_s)));
      }
    }
  } else {
    batch_seq = draw.Draw(20000);
  }
  // The k-NN probe: distinct points, one request each, split over the
  // rounds. On serve_skewed it comes on top of the k-NN requests in the
  // mix: those are too few per run (~45) for a steady median, and they
  // show in the point p99 instead.
  const size_t mix_knn = in.knn_points.size();
  for (size_t i = 0; i < kKnnProbe; ++i) {
    rounds[i % R].probe.push_back(
        Req{true, static_cast<uint32_t>(in.knn_points.size())});
    in.knn_points.push_back(0.0);  // placed below
  }

  // A k-NN request costs several times more where the query falls in a
  // sparse stretch of the dataset than in a dense cluster, so the median
  // latency of random points measures where they fell: a stratified
  // sample of serve_skewed's ~45 mix k-NN spread their median by 0.13-0.21
  // over ten seeds on a shared 4-vCPU VM. The locations are therefore the
  // same on every seed: the probe takes the first kKnnProbe points of the
  // golden-ratio sequence, the mix the points after them; the seed decides
  // which requests are k-NN and the order the locations come in.
  SpreadEvenly(in.knn_points.data() + mix_knn, kKnnProbe, 0, 0.0, 10000.0,
               Rng(p.seed ^ 0x50524f4245ULL));
  SpreadEvenly(in.knn_points.data(), mix_knn, kKnnProbe, 0.0, 10000.0,
               Rng(p.seed ^ 0x5354524154ULL));

  // ---- set-up, several times ----
  // The vCPUs of a shared host run single-threaded code at speeds up to
  // ~40% apart, and which are slow changes from minute to minute. A set-up
  // timed on whichever vCPU the scheduler picked would measure that pick,
  // so each vCPU gets kSetupRepsPerCpu set-ups, taken in turn, and setup_s
  // is the mean over the vCPUs of each one's median. The last rig built is
  // the one measured.
  std::vector<std::vector<double>> reps(nproc);
  std::unique_ptr<Rig> rig;
  for (size_t r = 0; r < kSetupRepsPerCpu * nproc; ++r) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = BuildRig(p, in, opt, cpus[r % nproc], cpus);
    reps[r % nproc].push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::vector<double> cpu_setup_s;
  for (const std::vector<double>& on_cpu : reps) {
    cpu_setup_s.push_back(pb::Median(on_cpu));
  }
  const double setup_s =
      std::accumulate(cpu_setup_s.begin(), cpu_setup_s.end(), 0.0) /
      static_cast<double>(cpu_setup_s.size());
  std::printf("# set-up (s), median on each vCPU:");
  for (double v : cpu_setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  // ---- references, off the clock ----
  std::vector<const std::vector<Req>*> all = {&batch_seq};
  for (const Round& rd : rounds) {
    all.push_back(&rd.low);
    all.push_back(&rd.high);
    all.push_back(&rd.probe);
    for (const auto& seq : rd.rungs) all.push_back(&seq);
  }
  const int64_t ref_t0 = NowNs();
  const References refs =
      ComputeReferences(rig->engine->executor(), in, all, opt);
  std::printf("# references: %.2f s for the distinct requests\n",
              (NowNs() - ref_t0) / 1e9);
  // peak_rss_mb covers the measured workload: not the set-ups, nor the
  // reference pass with its per-thread malloc arenas.
  if (!ResetPeakRss()) {
    std::printf("# note: cannot reset the RSS high-water mark; peak_rss_mb "
                "includes set-up and references\n");
  }

  Metrics m;
  size_t attempted = 0, failed = 0, completed = 0, wrong = 0;
  double threads_seen = 0;
  const int64_t wall0 = NowNs();
  auto windowed = [&](const std::vector<double>& v, double q) {
    return pb::WindowedTail(v, q, kTailWindow).value;
  };

  // What one round measured. On batch_point, low/high.point_us hold the
  // batch-1 and batch-256 latencies.
  struct RoundOut {
    double steal = 0;
    Summary low, high;
    double max_qps = 0, qps = 0;
    std::vector<double> knn_us, knn_engine_us;
    double cpu_s = 0;
    size_t cpu_queries = 0;
    double engine_ms = 0, engine_wall_s = 0;
    std::vector<CoreRec> core;
    size_t coalesced_requests = 0, coalesced_batches = 0;
  };
  std::vector<RoundOut> outs(R);
  std::unique_ptr<OpenLoop> loop;
  net::ServerStats ss0;
  CacheStats cs0;
  std::vector<std::unique_ptr<Phase>> phases;
  if (p.serve()) {
    loop = std::make_unique<OpenLoop>(p, in, refs, opt, rig->server->port());
    ss0 = rig->server->stats();
    if (rig->cache) cs0 = rig->cache->GetCacheStats();
  }
  auto run_phase = [&](double rate, const std::vector<Req>& seq,
                       bool abortable) -> Phase& {
    phases.push_back(std::make_unique<Phase>());
    Phase& ph = *phases.back();
    ph.offered_qps = rate;
    ph.reqs = &seq;
    loop->Run(ph, seq.size(), abortable);
    return ph;
  };

  size_t pos = 0;  // batch_point's place in its request sequence
  for (size_t r = 0; r < R; ++r) {
    RoundOut& o = outs[r];
    const StealMeter st0 = StealMeter::Read();
    const double c0 = CpuSeconds();
    const size_t done0 = completed;
    std::vector<pb::RungOutcome> rungs;
    if (!p.serve()) {
      // The caller and the two workers, the only threads, move one vCPU on
      // each round: the vCPUs run ~20% apart, and threads left to the
      // scheduler stay where they started, so a run would draw one
      // placement for all its rounds. (The serve workloads' dozen threads
      // are spread and moved by the scheduler, and their per-phase
      // receivers would inherit a pin.)
      PlaceThreads(cpus, static_cast<int>(r));
      // ---- batch_point: the batch-size ladder, smallest first; batch 1
      // is the "low" latency, the largest the loop qps comes from ----
      for (size_t k = 0; k < ladder.size(); ++k) {
        const size_t b = static_cast<size_t>(ladder[k]);
        const bool is_low = k == 0, is_high = k + 1 == ladder.size();
        const double secs = is_low    ? p.low_share * round_s
                             : is_high ? p.high_share * round_s
                                       : rung_s;
        BatchRun run = RunBatchLoop(*rig->engine, batch_seq, &pos, b, secs, in,
                                    refs, opt, p);
        if (is_high && r == 0) threads_seen = static_cast<double>(ThreadCount());
        attempted += run.queries;
        failed += run.failed;
        wrong += run.failed;
        completed += run.queries - run.failed;
        pb::RungOutcome ro;
        ro.offered_qps = run.queries / run.wall_s;
        ro.tail_us = pb::SupportedTail(run.batch_us, 0.99).value;
        ro.failed = run.failed;
        rungs.push_back(ro);
        if (is_low) o.low.point_us = run.batch_us;
        if (is_high) {
          o.high.point_us = run.batch_us;
          o.qps = ro.offered_qps;
          o.engine_ms = run.engine_ms;
          o.engine_wall_s = run.wall_s;
          o.core = std::move(run.core);
        }
      }
      // This round's slice of the k-NN probe, one request per ExecuteBatch.
      for (const Req& req : rounds[r].probe) {
        std::vector<QueryRequest> one;
        one.push_back(MakeRequest(req, in, opt));
        const int64_t t0 = NowNs();
        std::vector<QueryResult> res = rig->engine->ExecuteBatch(std::move(one));
        const double us = (NowNs() - t0) / 1e3;
        ++attempted;
        if (!pb::SameAnswer(res[0].ids, refs.For(req))) {
          ++failed;
          ++wrong;
          continue;
        }
        ++completed;
        o.knn_us.push_back(us);
        o.knn_engine_us.push_back(res[0].stats.total_ms * 1e3);
      }
      o.cpu_s = CpuSeconds() - c0;
      o.cpu_queries = completed - done0;
    } else {
      // ---- serve: the low and high fixed rates, one climb of the rate
      // ladder, and this round's slice of the k-NN probe ----
      const Phase& lp = run_phase(p.low_qps, rounds[r].low, false);
      const SubmitQueueStats q1 = rig->Front().SubmitStats();
      const Phase& hp = run_phase(p.high_qps, rounds[r].high, false);
      const SubmitQueueStats q2 = rig->Front().SubmitStats();
      if (r == 0) threads_seen = static_cast<double>(ThreadCount());
      // CPU per query over the fixed-rate phases only: how far a ladder
      // climb goes varies from run to run, their request counts do not.
      o.cpu_s = CpuSeconds() - c0;
      o.low = Summarize(lp);
      o.high = Summarize(hp);
      o.cpu_queries = o.low.ok + o.high.ok;
      o.coalesced_requests = q2.requests - q1.requests;
      o.coalesced_batches = q2.batches - q1.batches;
      o.engine_ms = o.high.engine_ms;
      o.engine_wall_s = o.high.wall_s;
      if (p.trace) o.core = lp.core;
      for (size_t k = 0; k < ladder.size(); ++k) {
        const Phase& ph = run_phase(ladder[k], rounds[r].rungs[k], true);
        const Summary rs = Summarize(ph);
        pb::RungOutcome ro;
        ro.offered_qps = ladder[k];
        ro.tail_us = windowed(rs.point_us, 0.99);
        ro.failed = rs.failed;
        ro.lateness_grew = pb::LatenessGrows(rs.lag_us, kLatenessToleranceUs);
        ro.backlog_abort = ph.backlog_abort;
        rungs.push_back(ro);
        const bool ok = pb::RungPasses(ro, kSloP99Us);
        const double achieved =
            rs.ok / (static_cast<double>(rs.last_recv - ph.start) / 1e9);
        std::printf("# round %zu rung %6.0f q/s: achieved %7.0f  p99 %9.1f µs"
                    "  failed %zu  lateness %s  backlog %s -> %s\n",
                    r, ladder[k], achieved, ro.tail_us, ro.failed,
                    ro.lateness_grew ? "GROWS" : "flat",
                    ro.backlog_abort ? "OVER CAP" : "ok", ok ? "pass" : "FAIL");
        if (!ok) break;
        o.qps = achieved;
      }
      size_t probe_failed = 0;
      o.knn_us = loop->Probe(rounds[r].probe, &probe_failed, &wrong,
                             &o.knn_engine_us);
      attempted += rounds[r].probe.size();
      failed += probe_failed;
      completed += o.knn_us.size();
    }
    o.max_qps = pb::MaxQpsAtSlo(rungs, kSloP99Us);
    o.steal = StealMeter::Read().ShareSince(st0);
    std::printf("# round %zu: low p50 %.1f p99 %.1f µs, high p50 %.1f p99 %.1f"
                " µs, max_qps_at_slo %.0f, qps %.0f, steal %.2f%%\n",
                r, windowed(o.low.point_us, 0.5), windowed(o.low.point_us, 0.99),
                windowed(o.high.point_us, 0.5), windowed(o.high.point_us, 0.99),
                o.max_qps, o.qps, 100 * o.steal);
  }
  if (!p.serve()) PlaceThreads(cpus, -1);
  if (p.serve()) {
    size_t retries = 0;
    for (const auto& ph : phases) {
      const Summary s = Summarize(*ph);
      attempted += s.attempted;
      failed += s.failed;
      completed += s.ok;
      retries += ph->retries;
      wrong += ph->wrong;
    }
    const net::ServerStats ss1 = rig->server->stats();
    m["net.overload_rejections"] = ss1.overload_rejections - ss0.overload_rejections;
    m["net.deadline_expirations"] =
        ss1.deadline_expirations - ss0.deadline_expirations;
    m["net.protocol_errors"] = ss1.protocol_errors - ss0.protocol_errors;
    m["net.client_retries"] = static_cast<double>(retries);
    m["engine.max_coalesced"] =
        static_cast<double>(rig->Front().SubmitStats().max_coalesced);
    if (rig->cache) {
      const CacheStats cs1 = rig->cache->GetCacheStats();
      CacheStats d;
      d.hits = cs1.hits - cs0.hits;
      d.misses = cs1.misses - cs0.misses;
      d.rechecks = cs1.rechecks - cs0.rechecks;
      m["cache.hit_rate"] = d.HitRate();
      m["cache.rechecks"] = static_cast<double>(d.rechecks);
      m["cache.evictions"] = static_cast<double>(cs1.evictions - cs0.evictions);
      m["cache.bytes"] = static_cast<double>(cs1.bytes);
    }
  }

  // The metrics come from the rounds in which the hypervisor stole less
  // than kQuietSteal of the vCPU time, or from the third of the rounds with
  // the least steal if fewer were that quiet: a round it starved measured
  // the host, not the program. The choice looks only at steal, never at
  // the figures.
  std::vector<double> steal(R);
  for (size_t r = 0; r < R; ++r) steal[r] = outs[r].steal;
  const std::vector<size_t> order =
      pb::QuietRounds(steal, kQuietSteal, (R + 2) / 3);
  for (size_t r : order) cal.kept_steal += steal[r] / order.size();
  Summary low, high;
  std::vector<double> round_max, round_qps, knn_us, knn_engine_us;
  std::vector<CoreRec> core;
  double cpu_s = 0, engine_ms = 0, engine_wall_s = 0;
  size_t cpu_queries = 0, coalesced_requests = 0, coalesced_batches = 0;
  std::string steal_json = "[";
  for (size_t r = 0; r < R; ++r) steal_json += (r ? ", " : "") + Fmt(steal[r]);
  steal_json += "]";
  std::printf("# rounds kept (steal under %.0f%%, or the least-steal third):",
              100 * kQuietSteal);
  for (size_t r : order) {
    const RoundOut& o = outs[r];
    std::printf(" %zu", r);
    low.Append(o.low);
    high.Append(o.high);
    round_max.push_back(o.max_qps);
    round_qps.push_back(o.qps);
    core.insert(core.end(), o.core.begin(), o.core.end());
    cpu_s += o.cpu_s;
    cpu_queries += o.cpu_queries;
    engine_ms += o.engine_ms;
    engine_wall_s += o.engine_wall_s;
    coalesced_requests += o.coalesced_requests;
    coalesced_batches += o.coalesced_batches;
  }
  std::printf("\n");
  // A k-NN request is ~20 ms of CPU, not a chain of thread wake-ups, so
  // steal barely moves it: its latencies come from every round, which
  // gives the median enough samples of a heavy-tailed cost.
  for (const RoundOut& o : outs) {
    knn_us.insert(knn_us.end(), o.knn_us.begin(), o.knn_us.end());
    knn_engine_us.insert(knn_engine_us.end(), o.knn_engine_us.begin(),
                         o.knn_engine_us.end());
  }

  m["p50_us.low"] = windowed(low.point_us, 0.5);
  m["p99_us.low"] = windowed(low.point_us, 0.99);
  m["p50_us.high"] = windowed(high.point_us, 0.5);
  m["p99_us.high"] = windowed(high.point_us, 0.99);
  m["knn_p50_us.high"] = pb::Median(knn_us);
  if (p.skewed()) {
    // The k-NN requests of the mix, at the low and high rates of every
    // round: what a k-NN request meets behind and among cheap hits.
    std::vector<double> mix;
    for (const RoundOut& o : outs) {
      mix.insert(mix.end(), o.low.knn_us.begin(), o.low.knn_us.end());
      mix.insert(mix.end(), o.high.knn_us.begin(), o.high.knn_us.end());
    }
    m["knn_mix_p50_us"] = pb::Median(mix);
  }
  m["max_qps_at_slo"] = pb::InterquartileMean(round_max);
  m["qps"] = pb::InterquartileMean(round_qps);
  m["cpu_us_per_query"] = cpu_s * 1e6 / std::max<size_t>(1, cpu_queries);
  m["engine.worker_util"] =
      engine_ms / 1e3 / (engine_wall_s * static_cast<double>(kWorkers));
  if (!knn_engine_us.empty()) {
    m["core.knn_us"] =
        std::accumulate(knn_engine_us.begin(), knn_engine_us.end(), 0.0) /
        knn_engine_us.size();
  }
  if (p.trace) CoreMetrics(core, m);
  if (p.serve()) {
    m["loadgen.send_lag_p99_us"] = pb::SupportedTail(high.lag_us, 0.99).value;
    m["net.overhead_p50_us"] = pb::Median(low.overhead_us);
    m["net.overhead_p99_us"] = pb::SupportedTail(high.overhead_us, 0.99).value;
    m["engine.coalesced_mean"] =
        coalesced_batches > 0
            ? static_cast<double>(coalesced_requests) / coalesced_batches
            : 0.0;
    if (rig->cache) m["cache.hit_p50_us"] = pb::Median(low.cached_us);
    if (p.trace) {
      const std::vector<float> spans = rig->timer->TakeSpans();
      double sum = 0;
      for (float s : spans) sum += s;
      m["engine.submit_call_us"] = spans.empty() ? 0 : sum / spans.size() / 1e3;
      for (const Summary* s : {&low, &high}) {
        char title[96];
        std::snprintf(title, sizeof(title), "%s, %.0f q/s offered",
                      s == &low ? "low" : "high",
                      s == &low ? p.low_qps : p.high_qps);
        PrintWhereTimeGoes(title, s->point_us, s->overhead_us, s->engine_us,
                           s->lag_us);
      }
      std::printf("# check: net.overhead_p50_us + core.total_us = %.1f + %.1f"
                  " = %.1f µs vs traced round-trip p50 %.1f µs\n",
                  m["net.overhead_p50_us"], m["core.total_us"],
                  m["net.overhead_p50_us"] + m["core.total_us"],
                  pb::Median(low.point_us));
    }
  }
  loop.reset();
  const double measured_s = (NowNs() - wall0) / 1e9;

  if (p.trace) {
    m["trace.p50_us.low"] = m["p50_us.low"];
    m["trace.qps"] = m["qps"];
    SidePass(p, in, *rig->engine, opt, m);
    for (const char* k : {"engine.submit_call_us", "engine.coalesced_mean",
                          "engine.max_coalesced", "net.overhead_p50_us",
                          "net.overhead_p99_us", "net.overload_rejections",
                          "net.deadline_expirations", "net.protocol_errors",
                          "net.client_retries", "loadgen.send_lag_p99_us",
                          "cache.hit_rate", "cache.rechecks", "cache.evictions",
                          "cache.bytes", "cache.hit_p50_us", "core.knn_us",
                          "knn_mix_p50_us"}) {
      m.emplace(k, 0.0);  // a layer the workload does not use reads zero
    }
    m["engine.scratch_bytes"] = static_cast<double>(rig->engine->ScratchBytes());
    m["process.threads"] = threads_seen;
    m["error_rate"] = attempted ? static_cast<double>(failed) / attempted : 0.0;
  }
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = PeakRssMb();
  rig.reset();

  cal.st_after = CalibratedMops(1, cpus);
  cal.mt_after = CalibratedMops(nproc, cpus);
  std::printf("# calibration (Mops/s, 1 / %zu threads): before %.1f / %.1f, "
              "after %.1f / %.1f, kept rounds' steal %.2f%% -> %s\n",
              nproc, cal.st_before, cal.mt_before, cal.st_after, cal.mt_after,
              100 * cal.kept_steal,
              cal.Valid() ? "valid" : "INVALID (starved host; do not compare)");
  std::printf("# answers: %zu attempted, %zu completed, %zu failed "
              "(%zu wrong) over %.1f s measured -> check %s\n",
              attempted, completed, failed, wrong, measured_s,
              failed == 0 ? "PASS" : "FAIL");

  std::string json = "{\"correct\": ";
  // A wrong answer, an error frame, a request refused after the retry
  // budget and one lost with its connection all make the run incorrect:
  // latencies are taken over answered requests only, so a change that
  // sheds load must not read as faster.
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"calibration\": {\"nproc\": " + std::to_string(nproc) +
          ", \"st_before\": " + Fmt(cal.st_before) +
          ", \"mt_before\": " + Fmt(cal.mt_before) +
          ", \"st_after\": " + Fmt(cal.st_after) +
          ", \"mt_after\": " + Fmt(cal.mt_after) +
          ", \"kept_steal\": " + Fmt(cal.kept_steal) +
          ", \"valid\": " + (cal.Valid() ? "true" : "false") +
          ", \"round_steal\": " + steal_json + "}";
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                  k.c_str(), v);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "pvbench: error: %s\n", e.what());
  return 1;
}
