// Process-wide work-stealing thread pool for the quadratic kernels.
//
// Every pairwise hot path in the framework — AG-TR's DTW matrix, AG-TS's
// affinity matrix, AG-FP's stream featurization and Lloyd assignment, and
// the evaluation sweeps — is embarrassingly parallel: each output slot is
// a pure function of the inputs.  The pool exploits that with two
// data-parallel primitives whose *result layout is identical at every
// concurrency level*:
//
//   parallel_for(n, fn)       — fn(i) for every i in [0, n)
//   parallel_pairwise(n, fn)  — fn(i, j) for every unordered pair i < j
//
// Determinism contract: fn must write only to slots owned by its index
// (no shared accumulation), in which case the output is bit-identical to
// the serial loop regardless of thread count.  Callers that need an
// ordered reduction compute per-index values in parallel and fold them
// serially afterwards.
//
// Scheduling: each worker owns a deque of tasks; submit() from a worker
// pushes to the back of its own deque (chains stay local), submit() from
// outside round-robins.  Owners pop the *front* of their deque — FIFO, so
// a self-resubmitting chain cannot starve its deque-mates even on a
// single-threaded pool — and idle workers steal from the *back* of other
// workers' deques.  parallel_for distributes chunks through a shared claim counter
// and the *calling thread participates*, so a loop always completes even
// when every worker is busy with long-running pipeline tasks — which is
// also why nested parallel_for cannot deadlock: a call from inside a
// parallel region runs inline serially, and a call from inside a plain
// pool task (e.g. a pipeline shard regrouping) may fan out but never
// depends on a free worker to finish.
//
// Concurrency budget: ThreadPool::global() is the one process-wide pool.
// Its size comes from the SYBILTD_THREADS environment variable (unset or
// "0" = hardware concurrency); at concurrency 1 the data-parallel
// primitives run serially on the caller with no synchronization.  The
// streaming pipeline schedules its shard workers on the same pool, so one
// budget governs ingestion and batch regrouping.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sybiltd {

namespace obs {
class Counter;
}  // namespace obs

class ThreadPool {
 public:
  // Spawns `concurrency` worker threads (at least 1).
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t concurrency() const { return workers_.size(); }

  // Enqueue a fire-and-forget task.  Tasks must not throw (a throwing task
  // terminates, matching the std::thread behaviour the pipeline had before
  // it moved onto the pool).  Long-running work should be cut into
  // cooperative steps that re-submit themselves, so no task monopolizes a
  // worker.
  void submit(std::function<void()> task);

  // Run fn(i) for every i in [0, n).  Blocks until every index ran; the
  // caller participates.  The first exception thrown by fn is rethrown
  // here after all in-flight chunks finish; remaining chunks are skipped.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  // Run fn(i, j) for every unordered pair 0 <= i < j < n.  Pairs are
  // flattened row-major — (0,1), (0,2), ..., (1,2), ... — and chunked over
  // the flat index so the load balances even though later rows are
  // shorter.  Same blocking/exception semantics as parallel_for.
  void parallel_pairwise(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

  // Number of unordered pairs parallel_pairwise(n) visits: n*(n-1)/2.
  static std::size_t pair_count(std::size_t n) {
    return n < 2 ? 0 : n * (n - 1) / 2;
  }
  // Inverse of the row-major pair flattening: flat index k -> (i, j).
  static std::pair<std::size_t, std::size_t> unrank_pair(std::size_t n,
                                                         std::size_t k);

  // True on a pool worker thread or inside a parallel region — where the
  // data-parallel primitives degrade to inline serial loops.
  static bool in_parallel_region();

  // The process-wide pool, created on first use with
  // configured_concurrency() threads.
  static ThreadPool& global();

  // SYBILTD_THREADS, or hardware concurrency when unset/0/unparsable.
  static std::size_t configured_concurrency();
  // Parse one SYBILTD_THREADS value (exposed for tests); 0 on failure.
  static std::size_t parse_concurrency(const char* text);

  // Replace the global pool (joins the old one's workers first).  For
  // tests and benchmarks that compare thread counts; must not race with
  // in-flight work on the old pool — in particular, no CampaignEngine may
  // be running.
  static void set_global_concurrency(std::size_t concurrency);

 private:
  // A queued task plus its enqueue timestamp, so the pool can report the
  // queue-wait distribution (threadpool.queue_wait_us in the metrics
  // registry) without a side table.
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  // One per-worker deque under its own mutex: owner pushes the back and
  // pops the front, thieves take the back.  A mutex per deque is plenty here — tasks are
  // macro-sized (a whole chunk of DTW pairs, a pipeline micro-batch), so
  // queue contention is not the bottleneck a lock-free Chase–Lev deque
  // exists to solve, and it keeps the invariants ThreadSanitizer-obvious.
  // The counters are registry-owned (`threadpool.worker<i>.*`), recording
  // per-worker submit routing and steal pressure.
  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
    obs::Counter* submitted = nullptr;
    obs::Counter* steals = nullptr;
  };
  struct LoopState;

  void worker_loop(std::size_t self);
  bool try_pop_or_steal(std::size_t self, Task& task);
  static void run_loop_chunks(const std::shared_ptr<LoopState>& state);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;
  // Submitted-but-unclaimed tasks, so idle workers can sleep.  Signed: a
  // racing consumer may decrement before the producer's increment lands.
  std::int64_t pending_ = 0;
  std::size_t next_worker_ = 0;  // round-robin target for external submits
};

// Convenience wrappers over ThreadPool::global().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
void parallel_pairwise(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace sybiltd
