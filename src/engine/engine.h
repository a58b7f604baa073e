// The abstract query-engine interface.
//
// Two classes serve QueryRequests and implement pverify::Engine: the
// QueryEngine (one scatter/gather runtime at any shard count; one shard is
// the default) and the CachingEngine tier that can sit in front of it.
// Callers are written once against `Engine&`; whether the dataset lives in
// one R-tree or is partitioned across shards is decided only at
// construction (EngineOptions::num_shards). Every implementation honors
// the same contracts:
//
//  * Execute runs one request from the calling thread and ExecuteBatch
//    fans a batch across the implementation's WorkStealingPool, returning
//    results in request order; answers are bit-identical across
//    implementations and to the sequential executors (only timings
//    differ).
//  * Submit enqueues a request and returns a future; requests submitted
//    while a batch is in flight coalesce into the next pool batch.
//  * ExecuteBatch may be called from one thread at a time; Execute and
//    Submit may be called concurrently with everything.
//  * Scratch telemetry (ScratchQueriesServed / ScratchBytes) exposes the
//    per-worker arenas so callers can pin steady-state footprint.
#ifndef PVERIFY_ENGINE_ENGINE_H_
#define PVERIFY_ENGINE_ENGINE_H_

#include <future>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/request.h"

namespace pverify {

class Engine {
 public:
  virtual ~Engine();

  /// Worker threads the batch paths fan out over.
  virtual size_t num_threads() const = 0;

  /// Executes one request from the calling thread, outside any batch (a
  /// multi-shard QueryEngine still scatters its shards on its pool).
  virtual QueryResult Execute(QueryRequest request) = 0;

  /// Executes a batch across the worker pool; results are in request
  /// order. When `stats` is non-null it receives the batch aggregate.
  virtual std::vector<QueryResult> ExecuteBatch(
      std::vector<QueryRequest> requests, EngineStats* stats = nullptr) = 0;

  /// Non-blocking submission: queues the request and returns a future that
  /// resolves to the same result Execute would produce. Thread-safe.
  virtual std::future<QueryResult> Submit(QueryRequest request) = 0;

  /// Submission-queue telemetry (zeros until the first Submit).
  virtual SubmitQueueStats SubmitStats() const = 0;

  /// Total queries served from the per-worker scratches (telemetry).
  virtual size_t ScratchQueriesServed() const = 0;
  /// Approximate heap footprint of all scratch arenas.
  virtual size_t ScratchBytes() const = 0;

 protected:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
};

/// One queued async request with the promise its future was minted from
/// (shared between the engines and the SubmitQueue).
struct PendingQuery {
  QueryRequest request;
  std::promise<QueryResult> promise;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_ENGINE_H_
