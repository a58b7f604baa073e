// The batched multi-threaded query engine.
//
// A QueryEngine serves every query family the library evaluates — point
// C-PNN (1-D and native 2-D), min/max, constrained k-NN, and pre-built
// candidate sets — over one dataset (1-D intervals, 2-D regions, or both).
// It is the single-process implementation of the pverify::Engine interface
// (see engine/engine.h). The dataset is partitioned across
// EngineOptions::num_shards shards (hash or range on the object domain,
// pluggable via ShardingPolicy); each shard is a CpnnExecutor and/or a
// CpnnExecutor2D plus the shard's domain bounds. The default is one shard,
// which owns the whole dataset (moved in, not copied).
//
// Every request kind except pre-built candidate sets runs through ONE
// scatter/gather driver (ScatterGather), the paper's query (Fig. 3) with the
// filter split across shards:
//
//   phase 0  prunes shards by bounds: the bounds MAXDIST of the shards
//            nearest q caps the k-th smallest far point (k = 1 for point,
//            min and max queries), and a shard whose bounds MINDIST exceeds
//            the cap can hold neither that cut nor a candidate;
//   phase 1  collects each eligible shard's k smallest far points from its
//            R-tree, and the k-th smallest of their union is the exact
//            global cut;
//   phase 2  fetches each shard's survivors of that cut from the same
//            R-tree and builds their distance distributions;
//   gather   merges the survivors into one CandidateSet — whose
//            construction order-normalizes by (near point, id), so merge
//            order is irrelevant — and verifies/refines it once (a PNN
//            probability depends on every candidate jointly, so shards
//            cannot verify independently).
//
// When phase 0 leaves one eligible shard — always, at one shard — phases
// 1–2 are skipped and that shard's executor answers the request directly
// with the worker's scratch. This is exact: every object of a pruned shard
// has MinDist above the cap, and the cap bounds every far point of the
// eligible shard, so the pruned shards hold neither the cut nor a
// candidate. Answers (ids, probability bounds, k-NN answers) are therefore
// bit-identical across shard counts and to the sequential executors; only
// timings differ.
//
// Parallelism is two-level: batches fan requests across a fixed-size
// WorkStealingPool (spawned on first use: the first batch, Submit or
// multi-shard scatter, never in the constructor), and each request's
// phase-1/phase-2 shard loops fan out again as real nested ParallelFors —
// idle workers steal shard tasks, so a single high-latency query scatters
// across every core. Each worker owns one QueryScratch. Interactive callers
// can also Submit single requests and get a future back: an internal
// submission queue coalesces everything in flight into batches for the
// pool (see engine/submit_queue.h).
#ifndef PVERIFY_ENGINE_QUERY_ENGINE_H_
#define PVERIFY_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/query.h"
#include "core/query2d.h"
#include "datagen/partition.h"
#include "engine/engine.h"
#include "engine/scratch.h"
#include "engine/work_steal_pool.h"
#include "spatial/bounds.h"

namespace pverify {

class SubmitQueue;

struct EngineOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
  /// Radial-cdf resolution of the 2-D executors (Point2DQuery requests).
  int radial_pieces = 64;
  /// Number of shards the dataset is partitioned into (clamped to >= 1).
  size_t num_shards = 1;
  /// Object-to-shard assignment; null means hash sharding on object id.
  std::shared_ptr<const ShardingPolicy> policy = nullptr;
};

/// Per-batch statistics with the scatter phases broken down by shard.
struct ShardedBatchStats {
  /// Aggregate over the batch's final per-request stats — the same
  /// EngineStats the plain ExecuteBatch overload fills.
  EngineStats gathered;
  /// Scatter-phase contribution of each shard: queries that visited it,
  /// its filter/candidate-build time, its dataset size in the request's
  /// dimensionality and the candidates it contributed.
  std::vector<EngineStats> per_shard;
  /// MergeEngineStats(per_shard): the scatter phases summed across shards.
  EngineStats scatter_totals;
  size_t shard_visits = 0;   ///< shard scatter executions in this batch
  size_t shards_pruned = 0;  ///< scatter executions skipped via bounds
};

/// Serves any number of queries over one (possibly sharded) dataset,
/// sequentially or batched. See engine/engine.h for the interface
/// contracts.
class QueryEngine : public Engine {
 public:
  explicit QueryEngine(Dataset dataset, EngineOptions options = {});
  /// 2-D-only engine: serves Point2DQuery/Knn2DQuery (and CandidatesQuery)
  /// requests; shards by ShardingPolicy::ShardOf2D with Mbr-based pruning.
  explicit QueryEngine(Dataset2D dataset, EngineOptions options = {});
  /// Dual-mode engine: one engine serving both workload shapes, both
  /// datasets partitioned by the same policy.
  QueryEngine(Dataset dataset, Dataset2D dataset2d,
              EngineOptions options = {});
  ~QueryEngine() override;

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const override { return num_threads_; }
  const ShardingPolicy& policy() const { return *policy_; }
  /// The i-th shard's executor (its dataset is the i-th partition; the
  /// whole dataset at one shard).
  const CpnnExecutor& executor(size_t shard = 0) const {
    return shards_[shard]->executor;
  }
  /// The i-th shard's 2-D executor, or nullptr when the engine has no 2-D
  /// dataset.
  const CpnnExecutor2D* executor2d(size_t shard = 0) const {
    const Shard& s = *shards_[shard];
    return s.executor2d.has_value() ? &*s.executor2d : nullptr;
  }
  /// The i-th shard's domain bounds (empty for an empty shard).
  const DomainBounds& shard_bounds(size_t i) const {
    return shards_[i]->bounds;
  }
  /// The i-th shard's 2-D domain bounds (empty for an empty shard or a
  /// 1-D-only engine).
  const ShardBounds2D& shard_bounds2d(size_t i) const {
    return shards_[i]->bounds2d;
  }

  QueryResult Execute(QueryRequest request) override;
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;
  /// ExecuteBatch that also reports the per-shard scatter breakdown.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        ShardedBatchStats* stats);
  std::future<QueryResult> Submit(QueryRequest request) override;
  SubmitQueueStats SubmitStats() const override;

  /// Lifetime telemetry: shard executions per request (a single-shard exit
  /// counts one visit) vs. shards skipped outright by their domain bounds.
  size_t ShardVisits() const;
  size_t ShardsPruned() const;

  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

 private:
  /// One partition: its executors and bounds. Held by pointer because the
  /// 2-D filter points into its executor's dataset, so a shard never moves.
  struct Shard {
    Shard(Dataset dataset, std::optional<Dataset2D> dataset2d,
          int radial_pieces);

    CpnnExecutor executor;
    std::optional<CpnnExecutor2D> executor2d;
    DomainBounds bounds;
    ShardBounds2D bounds2d;
  };
  /// Per-shard scatter contribution of one request (stats only).
  struct ShardContrib {
    double filter_ms = 0.0;
    double init_ms = 0.0;
    size_t candidates = 0;
    size_t dataset_size = 0;
    bool visited = false;
  };
  struct ScatterRecord {
    std::vector<ShardContrib> shards;  ///< size num_shards when recording
    size_t visits = 0;                 ///< shards that served the request
    size_t pruned = 0;                 ///< shards skipped via bounds
  };

  /// The kind-specific pieces of the driver (bounds metric, local filter,
  /// cut, survivors, single-shard exit, gather evaluation), generic over
  /// dimensionality; point/min/max queries are the k = 1, !kKnn case.
  /// Defined in the .cc (every instantiation lives there).
  template <int Dim, bool kKnn>
  struct ScatterPolicy;

  /// Shared constructor body; `serve_2d` distinguishes "no 2-D dataset"
  /// (2-D requests throw) from "2-D dataset that happens to be empty"
  /// (2-D requests answer empty).
  QueryEngine(Dataset dataset, Dataset2D dataset2d, EngineOptions options,
              bool serve_2d);

  QueryResult ExecuteOne(QueryRequest&& request, QueryScratch* scratch,
                         ScatterRecord* record);
  /// Per-kind dispatch, one overload per variant alternative; each builds
  /// its policy and runs the one ScatterGather driver (CandidatesQuery is
  /// the exception: its payload already is the gathered set).
  QueryResult Run(PointQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(MinQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(MaxQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(KnnQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(CandidatesQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);
  QueryResult Run(Point2DQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);
  QueryResult Run(Knn2DQuery&& q, QueryScratch* scratch, ScatterRecord* record);

  /// THE scatter/gather driver — the only place the phase-0 cap → local
  /// filter → exact global cut → merge skeleton exists.
  template <typename Policy>
  QueryResult ScatterGather(Policy& policy, QueryScratch* scratch,
                            ScatterRecord* record);
  /// Adds one request's visits and pruned shards to the lifetime counters
  /// and, when recording, to its record.
  void CountScatter(size_t visits, size_t pruned, ScatterRecord* record);

  /// The worker pool, spawned on first call (thread-safe).
  WorkStealingPool& Pool();
  /// Runs fn(i) for i in [0, n) on the pool (nested when called from a
  /// worker), or sequentially for one index or a one-worker pool.
  void ForEachIndex(size_t n, const std::function<void(size_t)>& fn);
  std::vector<QueryResult> ExecuteBatchLocked(
      std::vector<QueryRequest>&& requests, EngineStats* gathered,
      ShardedBatchStats* sharded);
  void RunSubmitted(std::vector<PendingQuery>& batch);
  SubmitQueue* EnsureSubmitQueue();

  std::shared_ptr<const ShardingPolicy> policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t total_objects_ = 0;
  size_t total_objects2d_ = 0;
  int radial_pieces_ = 64;
  /// Global domain endpoints (the same min/max CpnnExecutor takes over its
  /// dataset, so min/max queries evaluate at bit-identical virtual query
  /// points at every shard count).
  double domain_lo_ = 0.0;
  double domain_hi_ = 0.0;

  size_t num_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<WorkStealingPool> pool_;  ///< lazy; see Pool()
  std::vector<std::unique_ptr<QueryScratch>> worker_scratches_;
  QueryScratch serial_scratch_;  ///< used by Execute()
  /// Mutable so the const telemetry accessors can exclude in-flight
  /// queries mutating the scratches.
  mutable std::mutex serial_mu_;
  /// One batch at a time owns the worker scratches.
  mutable std::mutex batch_mu_;

  std::atomic<size_t> shard_visits_{0};
  std::atomic<size_t> shards_pruned_{0};

  /// Lazily started on first Submit; declared last so it drains (and stops
  /// using the pool/scratches) before anything above is destroyed.
  std::once_flag submit_once_;
  /// Published (release) once submit_queue_ is constructed so SubmitStats
  /// can read it lock-free from any thread.
  std::atomic<SubmitQueue*> submit_queue_ptr_{nullptr};
  std::unique_ptr<SubmitQueue> submit_queue_;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_QUERY_ENGINE_H_
