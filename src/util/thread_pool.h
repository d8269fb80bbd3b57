/// \file thread_pool.h
/// \brief Fixed-size thread pool used for parallel query operators,
/// parallel cracking, parallel sorting and holistic worker teams.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace holix {

/// Per-call result of ParallelForMorsels, for callers that want to export
/// scheduling metrics (the pool itself stays metrics-free: util cannot
/// depend on obs).
struct MorselRunStats {
  size_t morsels = 0;  ///< Morsels executed (== end - begin).
  size_t steals = 0;   ///< Morsels a participant took from another's queue.
};

/// A minimal fixed-size thread pool.
///
/// Tasks are `std::function<void()>`; Submit never blocks. The pool supports
/// three idioms used throughout holix:
///  * fire-and-forget Submit + WaitIdle (holistic workers),
///  * ParallelFor over an index range with static partitioning (operators),
///  * ParallelForMorsels: work-stealing over an index range (parallel
///    cracking's morsel scheduler).
class ThreadPool {
 public:
  /// Starts \p num_threads workers (at least 1).
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Enqueues \p task for asynchronous execution.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
      ++pending_;
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has finished executing.
  void WaitIdle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return pending_ == 0; });
  }

  /// Runs \p body(i) for every i in [begin, end) using static partitioning
  /// across the pool, and blocks until all iterations are done. The calling
  /// thread executes one shard itself. Safe to call from multiple client
  /// threads concurrently: completion is tracked per call, not pool-wide.
  ///
  /// Exception barrier: if any iteration throws, remaining iterations are
  /// skipped (best effort), every shard is still joined, and the *first*
  /// captured exception is rethrown on the calling thread.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body) {
    const size_t n = end - begin;
    if (n == 0) return;
    const size_t shards = std::min(n, threads_.size() + 1);
    if (shards <= 1) {
      for (size_t i = begin; i < end; ++i) body(i);
      return;
    }
    const size_t chunk = (n + shards - 1) / shards;
    auto done = std::make_shared<Barrier>();
    auto run_shard = [&body, done](size_t lo, size_t hi) {
      try {
        for (size_t i = lo; i < hi; ++i) {
          if (done->abort.load(std::memory_order_relaxed)) break;
          body(i);
        }
      } catch (...) {
        done->CaptureError();
      }
    };
    size_t submitted = 0;
    for (size_t s = 1; s < shards; ++s) {
      const size_t lo = begin + s * chunk;
      if (lo < std::min(end, lo + chunk)) ++submitted;
    }
    done->remaining = submitted;
    for (size_t s = 1; s < shards; ++s) {
      const size_t lo = begin + s * chunk;
      const size_t hi = std::min(end, lo + chunk);
      if (lo >= hi) continue;
      Submit([lo, hi, run_shard, done] {
        run_shard(lo, hi);
        done->SignalOne();
      });
    }
    // The caller runs shard 0 itself to avoid idling.
    run_shard(begin, std::min(end, begin + chunk));
    done->Wait();
    done->Rethrow();
  }

  /// Runs \p body(i) for every i in [begin, end) with morsel-driven
  /// work stealing: indices are dealt out as contiguous blocks to per-slot
  /// deques, each participant pops its own queue from the front and, when
  /// empty, steals from the back of a victim's queue. The calling thread
  /// participates as slot 0. At most \p max_participants threads take part
  /// (0 = caller + whole pool). Same exception barrier as ParallelFor.
  ///
  /// One index is one morsel; callers choose the morsel granularity by how
  /// they carve their range (parallel_crack.h uses ~L2-sized row blocks).
  MorselRunStats ParallelForMorsels(size_t begin, size_t end,
                                    const std::function<void(size_t)>& body,
                                    size_t max_participants = 0) {
    MorselRunStats stats;
    const size_t n = end - begin;
    stats.morsels = n;
    if (n == 0) return stats;
    size_t slots = std::min(n, threads_.size() + 1);
    if (max_participants != 0) slots = std::min(slots, max_participants);
    if (slots <= 1) {
      for (size_t i = begin; i < end; ++i) body(i);
      return stats;
    }

    struct Slot {
      std::mutex mu;
      std::deque<size_t> q;
    };
    struct Run : Barrier {
      explicit Run(size_t k) : slots(k) {}
      std::vector<Slot> slots;
      std::atomic<size_t> steals{0};
    };
    auto run = std::make_shared<Run>(slots);
    // Deal contiguous blocks so each participant starts on its own region
    // (stealing from the back of a victim keeps stolen morsels far from the
    // victim's working end).
    const size_t chunk = (n + slots - 1) / slots;
    for (size_t s = 0; s < slots; ++s) {
      const size_t lo = begin + std::min(n, s * chunk);
      const size_t hi = begin + std::min(n, (s + 1) * chunk);
      for (size_t i = lo; i < hi; ++i) run->slots[s].q.push_back(i);
    }

    auto participate = [&body, run](size_t self) {
      const size_t k = run->slots.size();
      for (;;) {
        if (run->abort.load(std::memory_order_relaxed)) return;
        std::optional<size_t> idx;
        {
          Slot& own = run->slots[self];
          std::lock_guard<std::mutex> lk(own.mu);
          if (!own.q.empty()) {
            idx = own.q.front();
            own.q.pop_front();
          }
        }
        if (!idx) {
          for (size_t d = 1; d < k && !idx; ++d) {
            Slot& victim = run->slots[(self + d) % k];
            std::lock_guard<std::mutex> lk(victim.mu);
            if (!victim.q.empty()) {
              idx = victim.q.back();
              victim.q.pop_back();
              run->steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        if (!idx) return;  // All queues drained; no new morsels appear.
        try {
          body(*idx);
        } catch (...) {
          run->CaptureError();
          return;
        }
      }
    };

    run->remaining = slots - 1;
    for (size_t s = 1; s < slots; ++s) {
      Submit([participate, run, s] {
        participate(s);
        run->SignalOne();
      });
    }
    participate(0);
    run->Wait();
    stats.steals = run->steals.load(std::memory_order_relaxed);
    run->Rethrow();
    return stats;
  }

 private:
  /// Per-call completion + first-exception latch shared by the parallel
  /// loops. Rethrow() must only be called after Wait().
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    std::atomic<bool> abort{false};
    std::exception_ptr error;  // first captured exception; guarded by mu

    void CaptureError() {
      abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu);
      if (!error) error = std::current_exception();
    }
    void SignalOne() {
      std::unique_lock<std::mutex> lk(mu);
      if (--remaining == 0) cv.notify_all();
    }
    void Wait() {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] { return remaining == 0; });
    }
    void Rethrow() {
      std::lock_guard<std::mutex> lk(mu);
      if (error) std::rethrow_exception(error);
    }
  };

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (--pending_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace holix
