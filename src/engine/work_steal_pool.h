// Work-stealing worker pool with a nesting-safe ParallelFor — the one pool
// both engines fan work out on.
//
// Layout: every worker owns a deque accessed Chase–Lev-style — the owner
// pushes and pops at the BOTTOM (LIFO, so the hottest, most recently
// spawned work runs first and nested loops unwind innermost-first), thieves
// take from the TOP (FIFO, so they grab the oldest and therefore typically
// largest pending work). External threads inject through a shared FIFO
// queue that workers poll between their own deque and stealing. Each deque
// is guarded by its own mutex rather than the lock-free Chase–Lev
// protocol: at engine task granularity (tasks are whole queries or whole
// shard scans, tens of microseconds and up) an uncontended lock is noise,
// and the locked form is provably data-race-free — the TSan CI job runs
// the entire engine suite over this pool.
//
// Nesting: ParallelFor called from inside a pool worker does NOT block on a
// condition variable (that would deadlock once every worker waits on an
// inner loop). Instead the calling worker spawns the loop's runner tasks
// onto its own deque and then PARTICIPATES: it claims loop indices itself
// and, whenever the loop still has unfinished runners it cannot execute
// (because thieves hold them), it drains its own deque and steals from the
// other workers — executing whatever task it finds, including other
// queries — until the inner loop's completion latch trips. Fan-out from
// inside pool workers is therefore deadlock-free by construction, and idle
// workers are never idle while any loop anywhere has unclaimed indices.
//
// Worker ids are stable: each OS worker thread keeps one id in [0, size())
// for the pool's lifetime, every callback (nested or not) reports the id of
// the thread executing it, and a worker participating in its own inner
// loop runs those iterations under its outer id — per-worker scratch
// arenas keyed by the id therefore keep working across nesting and
// stealing.
#ifndef PVERIFY_ENGINE_WORK_STEAL_POOL_H_
#define PVERIFY_ENGINE_WORK_STEAL_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pverify {

/// Move-only type-erased callable used for every queued pool task. Unlike
/// std::function it (a) never allocates for captures up to kInlineBytes —
/// the pool's own loop-runner tasks are a couple of pointers, so the hot
/// path stays allocation-free — and (b) passes the executing worker's id
/// to callables that want it: f(worker) when invocable, plain f()
/// otherwise.
class PoolTask {
 public:
  static constexpr size_t kInlineBytes = 48;

  PoolTask() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PoolTask>>>
  PoolTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    constexpr bool kInline = sizeof(Fn) <= kInlineBytes &&
                             alignof(Fn) <= alignof(std::max_align_t) &&
                             std::is_nothrow_move_constructible_v<Fn>;
    if constexpr (kInline) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  PoolTask(PoolTask&& other) noexcept { MoveFrom(other); }
  PoolTask& operator=(PoolTask&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  PoolTask(const PoolTask&) = delete;
  PoolTask& operator=(const PoolTask&) = delete;
  ~PoolTask() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the callable (which must be engaged) with the executing
  /// worker's id.
  void operator()(size_t worker) { ops_->invoke(storage_, worker); }

 private:
  struct Ops {
    void (*invoke)(void* storage, size_t worker);
    void (*relocate)(void* from, void* to) noexcept;  // move + destroy from
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static void Invoke(void* storage, size_t worker) {
    Fn& f = *static_cast<Fn*>(storage);
    if constexpr (std::is_invocable_v<Fn&, size_t>) {
      f(worker);
    } else {
      f();
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      &Invoke<Fn>,
      [](void* from, void* to) noexcept {
        Fn* f = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* storage, size_t worker) {
        Invoke<Fn>(*static_cast<Fn**>(storage), worker);
      },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* storage) noexcept { delete *static_cast<Fn**>(storage); },
  };

  void MoveFrom(PoolTask& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The work-stealing pool. See the file comment for the scheduling model.
class WorkStealingPool {
 public:
  /// Spawns `num_threads` workers (0 means DefaultThreadCount()).
  explicit WorkStealingPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Hardware concurrency with a safe fallback (>= 1).
  static size_t DefaultThreadCount();

  /// Number of worker threads (>= 1).
  size_t size() const { return deques_.size(); }

  /// Enqueues a task for any worker: onto the calling worker's own deque
  /// when called from inside the pool, through the injection queue
  /// otherwise. Fire-and-forget; pair with WaitIdle() to synchronize.
  void Submit(PoolTask task);

  /// Blocks until every Submit()ted task has finished. (ParallelFor is
  /// self-synchronizing and does not count.)
  void WaitIdle();

  /// Runs fn(worker, index) for every index in [0, n), distributing
  /// indices dynamically over the workers, and blocks until every index is
  /// processed. `worker` is a stable id in [0, size()); a nested call runs
  /// its iterations under the participating thread's outer id, so
  /// per-worker scratch keys stay valid. If any callback throws, one of
  /// the exceptions is rethrown here after the loop drains. Callable from
  /// any external thread (the caller blocks on the loop's latch) and from
  /// inside a pool worker (the caller participates).
  void ParallelFor(size_t n,
                   const std::function<void(size_t worker, size_t index)>& fn);

  /// Sentinel returned by CurrentWorkerId on non-worker threads.
  static constexpr size_t kNotAWorker = ~static_cast<size_t>(0);

  /// The calling thread's stable worker id in this pool, or kNotAWorker.
  size_t CurrentWorkerId() const;

  /// Milliseconds the CALLING thread has spent executing other tasks'
  /// work while blocked inside a pool's ParallelFor call (it
  /// drains/steals foreign tasks instead of blocking). Monotone per
  /// thread; callers snapshot it around a timed section and subtract the
  /// delta so per-query timings stop charging stolen work to the query
  /// that happened to be blocked. Maintained in the drain loop of
  /// ParallelFor: each foreign task's wall time is added net of the bumps
  /// its own nested drains made, so a stolen whole-query task that itself
  /// steals is charged exactly once. External threads never drain and
  /// read 0.
  static double ForeignWorkMsOnThisThread();

 private:
  /// One worker's task deque: owner at the bottom, thieves at the top.
  struct TaskDeque {
    std::mutex mu;
    std::deque<PoolTask> tasks;
    /// Maintained alongside tasks.size() so scans can skip empty deques
    /// without taking the lock.
    std::atomic<size_t> approx_size{0};
  };

  /// State of one ParallelFor, on the caller's stack. Runner tasks hold a
  /// pointer to it; every runner has finished (and been popped) by the
  /// time ParallelFor returns, so no queued task outlives its loop.
  struct LoopState;

  void WorkerLoop(size_t worker_id);
  /// Pops own deque (LIFO) / injection queue / steals (FIFO); runs at most
  /// one task. Returns false when nothing was runnable anywhere.
  bool RunOneTask(size_t self);
  /// Claims loop indices until the cursor is exhausted (one "runner").
  static void RunLoopBody(LoopState& state, size_t worker);
  void PushToOwnDeque(size_t self, PoolTask task);
  void Inject(PoolTask task);
  /// Bumps the work epoch and wakes sleepers; call after any push.
  void SignalWork();

  std::vector<std::unique_ptr<TaskDeque>> deques_;
  std::mutex inject_mu_;
  std::deque<PoolTask> injected_;
  std::atomic<size_t> injected_size_{0};

  /// Sleep management: workers that find every queue empty wait for the
  /// epoch to move. Pushers bump the epoch, then acquire-release sleep_mu_
  /// so a worker between its last failed scan and its wait cannot miss the
  /// bump (the empty critical section serializes against the predicate
  /// check).
  std::atomic<uint64_t> work_epoch_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stopping_{false};

  /// Submit() accounting for WaitIdle.
  std::atomic<size_t> submitted_in_flight_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::vector<std::thread> workers_;  ///< last: threads see members above
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_WORK_STEAL_POOL_H_
