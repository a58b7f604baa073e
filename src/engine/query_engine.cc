#include "engine/query_engine.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"
#include "engine/submit_queue.h"
#include "spatial/filter.h"
#include "uncertain/distance_distribution.h"

namespace pverify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The gather currency: each shard's surviving (id, distance distribution)
/// pairs, merged before the single verification pass.
using Survivors = std::vector<std::pair<ObjectId, DistanceDistribution>>;

}  // namespace

// ------------------------------------------------------------------------
// The scatter policy: the kind-specific pieces of the one ScatterGather
// driver, for a query point q and the k-th smallest far point as cut
// (k = 1 for point, min and max queries).
//
// Phase 0: walk shards by ascending bounds MAXDIST until they cover k
// objects; that MAXDIST upper-bounds the global k-th far point, so shards
// whose bounds MINDIST exceeds it hold none of the k smallest far points
// and no candidates. Phase 1 collects each shard's k smallest far points
// with its R-tree; their merge contains the k smallest global ones (each
// lives in its shard's local top-k), so the k-th order statistic of the
// merge equals the unsharded filter's cut exactly. Phase 2 fetches each
// shard's survivors from the same R-tree with the same per-object
// predicate the unsharded filter uses.
// ------------------------------------------------------------------------
template <int Dim, bool kKnn>
struct QueryEngine::ScatterPolicy {
  static_assert(Dim == 1 || Dim == 2, "scatter is 1-D or 2-D");
  using Point = std::conditional_t<Dim == 1, double, Point2>;

  const QueryEngine& engine;
  Point q;
  int k;
  const QueryOptions& options;

  ScatterPolicy(const QueryEngine& engine, Point q, int k,
                const QueryOptions& options)
      : engine(engine), q(q), k(k), options(options) {}

  static bool HasData(const Shard& shard) {
    if constexpr (Dim == 1) {
      return !shard.bounds.empty();
    } else {
      return !shard.bounds2d.empty();
    }
  }

  static size_t ShardSize(const Shard& shard) {
    if constexpr (Dim == 1) {
      return shard.executor.dataset().size();
    } else {
      return shard.executor2d->dataset().size();
    }
  }

  size_t TotalObjects() const {
    return Dim == 1 ? engine.total_objects_ : engine.total_objects2d_;
  }

  double MinDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      // Interval arithmetic, mirroring UncertainObject::MinDist — the
      // per-object quantity phase 2 compares against the cut.
      return IntervalMinDistToBounds(q, shard.bounds);
    } else {
      // The Mbr<2> metric lower-bounds every contained region's exact
      // MinDist (box contains region, shard MBR contains box).
      return MbrMinDistToBounds2D(q, shard.bounds2d);
    }
  }

  double MaxDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return IntervalMaxDistToBounds(q, shard.bounds);
    } else {
      return MbrMaxDistToBounds2D(q, shard.bounds2d);
    }
  }

  double Phase0Cap(const std::vector<std::unique_ptr<Shard>>& shards) const {
    std::vector<std::pair<double, size_t>> caps;
    caps.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      if (!HasData(*shards[i])) continue;
      caps.emplace_back(MaxDist(*shards[i]), i);
    }
    std::sort(caps.begin(), caps.end());
    size_t covered = 0;
    for (const std::pair<double, size_t>& cap : caps) {
      covered += ShardSize(*shards[cap.second]);
      if (covered >= static_cast<size_t>(k)) return cap.first;
    }
    return kInf;
  }

  std::vector<double> LocalFilter(const Shard& shard) const {
    const size_t want = static_cast<size_t>(k);
    if constexpr (Dim == 1) {
      return shard.executor.filter().SmallestFarPoints(q, want);
    } else {
      return shard.executor2d->filter().SmallestFarPoints(q, want);
    }
  }

  double GlobalCut(const std::vector<std::vector<double>>& locals) const {
    std::vector<double> fars;
    for (const std::vector<double>& part : locals) {
      fars.insert(fars.end(), part.begin(), part.end());
    }
    // Every eligible shard has data, so fars is non-empty; it holds at
    // least min(k, |dataset|) far points (phase 0 kept shards covering k).
    const size_t kth = std::min(fars.size(), static_cast<size_t>(k)) - 1;
    std::nth_element(fars.begin(), fars.begin() + kth, fars.end());
    return fars[kth];
  }

  void CollectSurvivors(const Shard& shard, double cut,
                        Survivors* out) const {
    if constexpr (Dim == 1) {
      const CpnnExecutor& ex = shard.executor;
      for (uint32_t idx : ex.filter().Survivors(q, cut)) {
        const UncertainObject& obj = ex.dataset()[idx];
        out->emplace_back(obj.id(),
                          DistanceDistribution::From1D(obj.pdf(), q));
      }
    } else {
      const CpnnExecutor2D& ex = *shard.executor2d;
      for (uint32_t idx : ex.filter().Survivors(q, cut)) {
        const UncertainObject2D& obj = ex.dataset()[idx];
        out->emplace_back(
            obj.id(),
            MakeDistanceDistribution2D(obj, q, engine.radial_pieces_));
      }
    }
  }

  /// The single-shard exit: the shard's executor answers the whole request.
  QueryResult Exit(const Shard& shard, QueryScratch* scratch) const {
    QueryResult result;
    if constexpr (kKnn) {
      CknnAnswer answer;
      if constexpr (Dim == 1) {
        answer = shard.executor.ExecuteKnn(q, k, options.params,
                                           options.integration, scratch,
                                           &result.stats);
      } else {
        answer = shard.executor2d->ExecuteKnn(q, k, options.params,
                                              options.integration, scratch,
                                              &result.stats);
      }
      result.ids = answer.ids;
      result.knn = std::move(answer);
    } else if constexpr (Dim == 1) {
      result = ToQueryResult(shard.executor.Execute(q, options, scratch));
    } else {
      result = ToQueryResult(shard.executor2d->Execute(q, options, scratch));
    }
    result.stats.dataset_size = TotalObjects();
    return result;
  }

  /// The gather: rebuilds the (order-normalized) candidate set with the
  /// k-aware pruning rule and evaluates it once.
  QueryResult Finish(Survivors&& merged, QueryScratch* scratch,
                     double filter_total, double build_total,
                     const Timer& total) const {
    Timer gather_timer;
    CandidateSet candidates =
        CandidateSet::FromDistances(std::move(merged), k);
    const double gather_ms = gather_timer.ElapsedMs();
    QueryResult result;
    if constexpr (kKnn) {
      Timer refine_timer;
      CknnAnswer answer =
          EvaluateCknn(candidates, k, options.params, options.integration,
                       scratch != nullptr ? &scratch->knn : nullptr);
      result.stats.refine_ms = refine_timer.ElapsedMs();
      result.stats.init_ms = build_total + gather_ms;
      result.stats.candidates = answer.bounds.size();
      result.ids = answer.ids;
      result.knn = std::move(answer);
    } else {
      result = ToQueryResult(
          ExecuteOnCandidates(std::move(candidates), options, scratch));
      result.stats.init_ms += build_total + gather_ms;
    }
    result.stats.filter_ms = filter_total;
    result.stats.dataset_size = TotalObjects();
    result.stats.total_ms = total.ElapsedMs();
    return result;
  }
};

// ------------------------------------------------------------------------
// Construction.
// ------------------------------------------------------------------------

QueryEngine::Shard::Shard(Dataset dataset, std::optional<Dataset2D> dataset2d,
                          int radial_pieces)
    : executor(std::move(dataset)),
      bounds(ComputeDomainBounds(executor.dataset())) {
  if (dataset2d.has_value()) {
    executor2d.emplace(std::move(*dataset2d), radial_pieces);
    bounds2d = ComputeShardBounds2D(executor2d->dataset());
  }
}

QueryEngine::QueryEngine(Dataset dataset, EngineOptions options)
    : QueryEngine(std::move(dataset), Dataset2D{}, std::move(options),
                  /*serve_2d=*/false) {}

QueryEngine::QueryEngine(Dataset2D dataset, EngineOptions options)
    : QueryEngine(Dataset{}, std::move(dataset), std::move(options),
                  /*serve_2d=*/true) {}

QueryEngine::QueryEngine(Dataset dataset, Dataset2D dataset2d,
                         EngineOptions options)
    : QueryEngine(std::move(dataset), std::move(dataset2d),
                  std::move(options), /*serve_2d=*/true) {}

QueryEngine::QueryEngine(Dataset dataset, Dataset2D dataset2d,
                         EngineOptions options, bool serve_2d)
    : policy_(options.policy != nullptr
                  ? std::move(options.policy)
                  : std::make_shared<const HashShardingPolicy>()),
      total_objects_(dataset.size()),
      total_objects2d_(dataset2d.size()),
      radial_pieces_(options.radial_pieces),
      num_threads_(options.num_threads == 0
                       ? WorkStealingPool::DefaultThreadCount()
                       : options.num_threads) {
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  std::vector<Dataset> parts;
  std::vector<Dataset2D> parts2d;
  if (num_shards == 1) {
    // One shard owns the whole dataset: moved, not partitioned (copied).
    parts.push_back(std::move(dataset));
    parts2d.push_back(std::move(dataset2d));
  } else {
    parts = PartitionDataset(dataset, num_shards, *policy_);
    parts2d = PartitionDataset2D(dataset2d, num_shards, *policy_);
  }
  shards_.reserve(num_shards);
  DomainBounds global;
  for (size_t s = 0; s < num_shards; ++s) {
    std::optional<Dataset2D> part2d;
    if (serve_2d) part2d.emplace(std::move(parts2d[s]));
    shards_.push_back(std::make_unique<Shard>(
        std::move(parts[s]), std::move(part2d), radial_pieces_));
    // min/max over the partitions is the min/max over the dataset.
    const DomainBounds& b = shards_.back()->bounds;
    if (b.empty()) continue;
    global.lo = std::min(global.lo, b.lo);
    global.hi = std::max(global.hi, b.hi);
  }
  if (!global.empty()) {
    domain_lo_ = global.lo;
    domain_hi_ = global.hi;
  }
  worker_scratches_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    worker_scratches_.push_back(std::make_unique<QueryScratch>());
  }
}

QueryEngine::~QueryEngine() = default;

// ------------------------------------------------------------------------
// Runtime: serial, batch and submitted execution, telemetry.
// ------------------------------------------------------------------------

WorkStealingPool& QueryEngine::Pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<WorkStealingPool>(num_threads_);
  });
  return *pool_;
}

QueryResult QueryEngine::Execute(QueryRequest request) {
  std::lock_guard<std::mutex> lock(serial_mu_);
  return ExecuteOne(std::move(request), &serial_scratch_, nullptr);
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  return ExecuteBatchLocked(std::move(requests), stats, nullptr);
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, ShardedBatchStats* stats) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  return ExecuteBatchLocked(std::move(requests), nullptr, stats);
}

std::vector<QueryResult> QueryEngine::ExecuteBatchLocked(
    std::vector<QueryRequest>&& requests, EngineStats* gathered,
    ShardedBatchStats* sharded) {
  std::vector<QueryResult> results(requests.size());
  std::vector<ScatterRecord> records;
  if (sharded != nullptr) records.resize(requests.size());
  Timer wall;
  // Requests fan out over the pool, and each one additionally scatters its
  // shards through a nested ParallelFor (idle workers steal the shard
  // tasks).
  Pool().ParallelFor(requests.size(), [&](size_t worker, size_t index) {
    ScatterRecord* record = nullptr;
    if (sharded != nullptr) {
      records[index].shards.resize(shards_.size());
      record = &records[index];
    }
    results[index] = ExecuteOne(std::move(requests[index]),
                                worker_scratches_[worker].get(), record);
  });
  const double wall_ms = wall.ElapsedMs();

  if (gathered == nullptr && sharded == nullptr) return results;
  EngineStats agg;
  agg.threads = num_threads_;
  agg.wall_ms = wall_ms;
  for (const QueryResult& r : results) AccumulateBatchResult(r.stats, &agg);
  if (gathered != nullptr) *gathered = std::move(agg);
  if (sharded != nullptr) {
    *sharded = ShardedBatchStats{};
    sharded->gathered = std::move(agg);
    sharded->per_shard.assign(shards_.size(), EngineStats{});
    for (const ScatterRecord& record : records) {
      sharded->shard_visits += record.visits;
      sharded->shards_pruned += record.pruned;
      for (size_t s = 0; s < shards_.size(); ++s) {
        const ShardContrib& contrib = record.shards[s];
        if (!contrib.visited) continue;
        EngineStats& ps = sharded->per_shard[s];
        ++ps.queries;
        ps.threads = 1;
        ps.totals.filter_ms += contrib.filter_ms;
        ps.totals.init_ms += contrib.init_ms;
        ps.totals.total_ms += contrib.filter_ms + contrib.init_ms;
        ps.totals.candidates += contrib.candidates;
        ps.totals.dataset_size += contrib.dataset_size;
      }
    }
    sharded->scatter_totals = MergeEngineStats(sharded->per_shard);
  }
  return results;
}

SubmitQueue* QueryEngine::EnsureSubmitQueue() {
  SubmitQueue* queue = submit_queue_ptr_.load(std::memory_order_acquire);
  if (queue != nullptr) return queue;
  std::call_once(submit_once_, [this] {
    submit_queue_ = std::make_unique<SubmitQueue>(
        [this](std::vector<PendingQuery>& batch) { RunSubmitted(batch); });
    submit_queue_ptr_.store(submit_queue_.get(), std::memory_order_release);
  });
  return submit_queue_ptr_.load(std::memory_order_acquire);
}

std::future<QueryResult> QueryEngine::Submit(QueryRequest request) {
  return EnsureSubmitQueue()->Submit(std::move(request));
}

SubmitQueueStats QueryEngine::SubmitStats() const {
  SubmitQueue* queue = submit_queue_ptr_.load(std::memory_order_acquire);
  return queue != nullptr ? queue->GetStats() : SubmitQueueStats{};
}

void QueryEngine::RunSubmitted(std::vector<PendingQuery>& batch) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  // Submitted (dispatcher-coalesced) batches land on the same pool as
  // explicit batches, and each request's shard loop nests, so even a
  // coalesced batch of ONE expensive query fans out.
  Pool().ParallelFor(batch.size(), [&](size_t worker, size_t index) {
    PendingQuery& item = batch[index];
    try {
      item.promise.set_value(ExecuteOne(std::move(item.request),
                                        worker_scratches_[worker].get(),
                                        nullptr));
    } catch (...) {
      item.promise.set_exception(std::current_exception());
    }
  });
}

size_t QueryEngine::ShardVisits() const {
  return shard_visits_.load(std::memory_order_relaxed);
}

size_t QueryEngine::ShardsPruned() const {
  return shards_pruned_.load(std::memory_order_relaxed);
}

size_t QueryEngine::ScratchQueriesServed() const {
  std::scoped_lock lock(serial_mu_, batch_mu_);
  size_t total = serial_scratch_.queries_served;
  for (const auto& s : worker_scratches_) total += s->queries_served;
  return total;
}

size_t QueryEngine::ScratchBytes() const {
  std::scoped_lock lock(serial_mu_, batch_mu_);
  size_t total = serial_scratch_.ApproxBytes();
  for (const auto& s : worker_scratches_) total += s->ApproxBytes();
  return total;
}

// ------------------------------------------------------------------------
// Per-kind dispatch.
// ------------------------------------------------------------------------

QueryResult QueryEngine::ExecuteOne(QueryRequest&& request,
                                    QueryScratch* scratch,
                                    ScatterRecord* record) {
  return std::visit(
      [&](auto&& payload) {
        return Run(std::move(payload), scratch, record);
      },
      std::move(request.query));
}

QueryResult QueryEngine::Run(PointQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  ScatterPolicy<1, false> policy(*this, q.q, 1, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult QueryEngine::Run(MinQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  // Any query point below the domain induces "smaller value = nearer". The
  // global domain makes this bit-identical to CpnnExecutor::ExecuteMin
  // (a shard's own domain would not be).
  ScatterPolicy<1, false> policy(*this, domain_lo_ - 1.0, 1, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult QueryEngine::Run(MaxQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  ScatterPolicy<1, false> policy(*this, domain_hi_ + 1.0, 1, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult QueryEngine::Run(KnnQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  PV_CHECK_MSG(q.k >= 1, "k must be positive");
  ScatterPolicy<1, true> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult QueryEngine::Run(CandidatesQuery&& q, QueryScratch* scratch,
                             ScatterRecord*) {
  // The payload already is the gathered candidate set — no scatter.
  // TakeCandidates throws on a consumed (moved-from) payload, so a
  // re-submitted request is rejected instead of silently answering over an
  // empty set.
  return ToQueryResult(
      ExecuteOnCandidates(q.TakeCandidates(), q.options, scratch));
}

QueryResult QueryEngine::Run(Point2DQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  PV_CHECK_MSG(executor2d() != nullptr,
               "Point2DQuery on an engine without a 2-D dataset");
  ScatterPolicy<2, false> policy(*this, q.q, 1, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult QueryEngine::Run(Knn2DQuery&& q, QueryScratch* scratch,
                             ScatterRecord* record) {
  PV_CHECK_MSG(executor2d() != nullptr,
               "Knn2DQuery on an engine without a 2-D dataset");
  PV_CHECK_MSG(q.k >= 1, "k must be positive");
  ScatterPolicy<2, true> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch, record);
}

// ------------------------------------------------------------------------
// The scatter/gather driver.
// ------------------------------------------------------------------------

void QueryEngine::ForEachIndex(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (n > 1 && num_threads_ > 1) {
    Pool().ParallelFor(n, [&fn](size_t, size_t index) { fn(index); });
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

void QueryEngine::CountScatter(size_t visits, size_t pruned,
                               ScatterRecord* record) {
  if (visits != 0) shard_visits_.fetch_add(visits, std::memory_order_relaxed);
  if (pruned != 0) shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  if (record != nullptr) {
    record->visits += visits;
    record->pruned += pruned;
  }
}

template <typename Policy>
QueryResult QueryEngine::ScatterGather(Policy& policy, QueryScratch* scratch,
                                       ScatterRecord* record) {
  // Phase 0: shards whose bounds MINDIST exceeds the cap cannot contribute.
  // One shard is eligible by construction (the exit below answers even an
  // empty one), so it computes no cap.
  const double cap =
      shards_.size() == 1 ? kInf : policy.Phase0Cap(shards_);
  size_t num_eligible = 0;
  size_t first = 0;
  size_t pruned = 0;
  auto eligible_at = [&](size_t i) {
    return Policy::HasData(*shards_[i]) &&
           policy.MinDist(*shards_[i]) <= cap + kFilterBoundarySlack;
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (eligible_at(i)) {
      if (num_eligible++ == 0) first = i;
    } else if (Policy::HasData(*shards_[i])) {
      ++pruned;
    }
  }

  // The single-shard exit: the eligible shard (or, with none, an empty
  // one) holds the cut and every candidate, so its executor answers.
  if (num_eligible <= 1) {
    QueryResult result = policy.Exit(*shards_[first], scratch);
    CountScatter(num_eligible, pruned, record);
    if (record != nullptr && num_eligible == 1) {
      ShardContrib& contrib = record->shards[first];
      contrib.visited = true;
      contrib.filter_ms = result.stats.filter_ms;
      contrib.init_ms = result.stats.init_ms;
      contrib.candidates = result.stats.candidates;
      contrib.dataset_size = Policy::ShardSize(*shards_[first]);
    }
    return result;
  }

  // Reentrancy invariant for nested scatter: a batch worker waiting on one
  // of the ForEachIndex loops below may STEAL another request's task and
  // execute it to completion on its own stack, reusing its per-worker
  // QueryScratch. That is safe only because `scratch` is untouched until
  // policy.Finish() — the phases that fan out (local filter, survivor
  // construction) never borrow scratch state, so at every possible steal
  // point the worker's scratch is quiescent. Keep it that way: no nested
  // ParallelFor may ever run while scratch buffers are borrowed.
  //
  // Telemetry companion of the same mechanism: the wall timer below keeps
  // running while the worker drains/steals, so the pool's per-thread
  // foreign-work clock is snapshotted around this request and its delta —
  // time this thread spent executing OTHER requests' stolen tasks —
  // subtracted from stats.total_ms. Without the correction, batch
  // aggregates of per-query totals over-report whenever multiple requests
  // are in flight (the phase timings, measured inside the loop bodies,
  // were always accurate).
  const double foreign0 = WorkStealingPool::ForeignWorkMsOnThisThread();
  Timer total;
  std::vector<size_t> eligible;
  eligible.reserve(num_eligible);
  for (size_t i = first; i < shards_.size(); ++i) {
    if (eligible_at(i)) eligible.push_back(i);
  }

  // Scatter, phase 1: the eligible shards' k smallest far points.
  std::vector<std::vector<double>> locals(eligible.size());
  std::vector<double> filter_ms(eligible.size(), 0.0);
  ForEachIndex(eligible.size(), [&](size_t j) {
    Timer t;
    locals[j] = policy.LocalFilter(*shards_[eligible[j]]);
    filter_ms[j] = t.ElapsedMs();
  });
  // The exact global cut: the k-th smallest far point across shards.
  const double cut = policy.GlobalCut(locals);

  // Scatter, phase 2: shards surviving the now-exact cut build their
  // survivors' (id, distance distribution) pairs.
  std::vector<Survivors> parts(eligible.size());
  std::vector<double> build_ms(eligible.size(), 0.0);
  std::vector<char> contributed(eligible.size(), 0);
  ForEachIndex(eligible.size(), [&](size_t j) {
    const Shard& shard = *shards_[eligible[j]];
    if (policy.MinDist(shard) > cut + kFilterBoundarySlack) {
      return;  // counted as pruned below
    }
    contributed[j] = 1;
    Timer t;
    policy.CollectSurvivors(shard, cut, &parts[j]);
    build_ms[j] = t.ElapsedMs();
  });

  // Gather: merge the parts (order irrelevant — the candidate-set
  // construction order-normalizes) and let the policy evaluate once.
  size_t visits = 0;
  size_t total_pairs = 0;
  for (size_t j = 0; j < eligible.size(); ++j) {
    if (contributed[j]) {
      ++visits;
      total_pairs += parts[j].size();
    } else {
      ++pruned;
    }
  }
  Survivors merged;
  merged.reserve(total_pairs);
  for (Survivors& part : parts) {
    for (std::pair<ObjectId, DistanceDistribution>& item : part) {
      merged.push_back(std::move(item));
    }
  }
  double filter_total = 0.0;
  for (double ms : filter_ms) filter_total += ms;
  double build_total = 0.0;
  for (double ms : build_ms) build_total += ms;
  QueryResult result = policy.Finish(std::move(merged), scratch,
                                     filter_total, build_total, total);
  const double foreign =
      WorkStealingPool::ForeignWorkMsOnThisThread() - foreign0;
  if (foreign > 0.0) {
    result.stats.total_ms = std::max(0.0, result.stats.total_ms - foreign);
  }

  CountScatter(visits, pruned, record);
  if (record != nullptr) {
    for (size_t j = 0; j < eligible.size(); ++j) {
      ShardContrib& contrib = record->shards[eligible[j]];
      contrib.visited = true;
      contrib.filter_ms = filter_ms[j];
      contrib.init_ms = build_ms[j];
      contrib.candidates = parts[j].size();
      contrib.dataset_size = Policy::ShardSize(*shards_[eligible[j]]);
    }
  }
  return result;
}

}  // namespace pverify
