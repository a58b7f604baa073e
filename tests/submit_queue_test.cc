// Unit tests for the async submission queue: coalescing (deterministic via
// a gated runner), FIFO dispatch, drain-on-destruction and runner-failure
// promise hygiene.
#include "engine/submit_queue.h"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pverify {
namespace {

QueryResult ResultWithId(ObjectId id) {
  QueryResult r;
  r.ids.push_back(id);
  return r;
}

// The tests' runners echo each request's query point back as an id.
double PointOf(const QueryRequest& request) {
  return std::get<PointQuery>(request.query).q;
}

// A runner the test can block: while the gate is closed the dispatcher sits
// inside the runner, so everything submitted meanwhile must coalesce into
// the next batch.
class GatedRunner {
 public:
  void operator()(std::vector<PendingQuery>& batch) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++calls_;
      batch_sizes_.push_back(batch.size());
      entered_.notify_all();
      gate_open_.wait(lock, [this] { return open_; });
    }
    for (PendingQuery& item : batch) {
      // Echo the request's query point back as an id to check FIFO order.
      item.promise.set_value(ResultWithId(
          static_cast<ObjectId>(PointOf(item.request))));
    }
  }

  void WaitUntilEntered(size_t calls) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.wait(lock, [&] { return calls_ >= calls; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_open_.notify_all();
  }

  std::vector<size_t> batch_sizes() {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_;
  std::condition_variable gate_open_;
  bool open_ = false;
  size_t calls_ = 0;
  std::vector<size_t> batch_sizes_;
};

TEST(SubmitQueueTest, CoalescesEverythingSubmittedDuringAnInFlightBatch) {
  GatedRunner runner;
  SubmitQueue queue([&runner](std::vector<PendingQuery>& batch) {
    runner(batch);
  });

  std::future<QueryResult> first = queue.Submit(PointQuery{0.0, {}});
  runner.WaitUntilEntered(1);  // dispatcher is now stuck inside batch #1

  std::vector<std::future<QueryResult>> rest;
  for (int i = 1; i <= 10; ++i) {
    rest.push_back(queue.Submit(PointQuery{static_cast<double>(i), {}}));
  }
  runner.Open();

  EXPECT_EQ(first.get().ids, std::vector<ObjectId>{0});
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(rest[i - 1].get().ids, std::vector<ObjectId>{i});
  }

  std::vector<size_t> sizes = runner.batch_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 10u);  // the burst coalesced into one batch

  SubmitQueueStats stats = queue.GetStats();
  EXPECT_EQ(stats.requests, 11u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_coalesced, 10u);
}

TEST(SubmitQueueTest, DestructorDrainsQueuedRequests) {
  std::vector<std::future<QueryResult>> futures;
  {
    SubmitQueue queue([](std::vector<PendingQuery>& batch) {
      for (PendingQuery& item : batch) {
        item.promise.set_value(
            ResultWithId(static_cast<ObjectId>(PointOf(item.request))));
      }
    });
    for (int i = 0; i < 64; ++i) {
      futures.push_back(queue.Submit(PointQuery{static_cast<double>(i), {}}));
    }
  }  // destructor must resolve every future before returning
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get().ids, std::vector<ObjectId>{i});
  }
}

TEST(SubmitQueueTest, ThrowingRunnerFailsPromisesInsteadOfBreakingThem) {
  SubmitQueue queue([](std::vector<PendingQuery>& batch) {
    // Fulfill the first entry, then die: the queue must fail the rest.
    batch.front().promise.set_value(ResultWithId(7));
    throw std::runtime_error("runner died");
  });
  std::future<QueryResult> ok = queue.Submit(PointQuery{0.0, {}});
  EXPECT_EQ(ok.get().ids, std::vector<ObjectId>{7});

  // A batch with several entries: entry 0 resolves, the rest get the error.
  SubmitQueue multi([](std::vector<PendingQuery>& batch) {
    batch.front().promise.set_value(ResultWithId(1));
    if (batch.size() > 1) throw std::runtime_error("partial failure");
  });
  // Submit two back to back; whether they land in one batch or two, every
  // future must resolve (value or exception), never broken_promise.
  std::future<QueryResult> a = multi.Submit(PointQuery{0.0, {}});
  std::future<QueryResult> b = multi.Submit(PointQuery{1.0, {}});
  for (std::future<QueryResult>* f : {&a, &b}) {
    try {
      QueryResult r = f->get();
      EXPECT_EQ(r.ids, std::vector<ObjectId>{1});
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "partial failure");
    }
  }
}

TEST(SubmitQueueTest, ManyThreadsSubmitConcurrently) {
  SubmitQueue queue([](std::vector<PendingQuery>& batch) {
    for (PendingQuery& item : batch) {
      item.promise.set_value(
          ResultWithId(static_cast<ObjectId>(PointOf(item.request))));
    }
  });
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::future<QueryResult>>> futures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(queue.Submit(
            PointQuery{static_cast<double>(t * kPerThread + i), {}}));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(futures[t][i].get().ids,
                std::vector<ObjectId>{t * kPerThread + i});
    }
  }
  SubmitQueueStats stats = queue.GetStats();
  EXPECT_EQ(stats.requests, static_cast<size_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.max_coalesced, 1u);
}

}  // namespace
}  // namespace pverify
