#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <exception>

#include "common/error.h"
#include "common/workspace.h"
#include "obs/metrics.h"

namespace sybiltd {

namespace {

// Pool-wide instruments, registered once.  Queue-wait is submit-to-start,
// run-time is the task body itself; both in microseconds.
struct PoolMetrics {
  obs::Counter& submitted = obs::MetricsRegistry::global().counter(
      "threadpool.submitted", "tasks enqueued on the pool");
  obs::Counter& executed = obs::MetricsRegistry::global().counter(
      "threadpool.executed", "tasks run to completion");
  obs::Counter& stolen = obs::MetricsRegistry::global().counter(
      "threadpool.stolen", "tasks taken from another worker's deque");
  obs::Histogram& queue_wait_us = obs::MetricsRegistry::global().histogram(
      "threadpool.queue_wait_us", "submit-to-start latency per task");
  obs::Histogram& task_run_us = obs::MetricsRegistry::global().histogram(
      "threadpool.task_run_us", "task body run time");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point until) {
  return std::chrono::duration<double, std::micro>(until - since).count();
}

// Which pool (if any) owns the current thread, and whether the thread is
// inside a parallel_for region.  Both drive the inline-serial fallbacks.
thread_local ThreadPool* tl_worker_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;
thread_local bool tl_in_parallel_region = false;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

// Shared state of one parallel_for invocation.  Runners (the caller plus
// any helper tasks) claim chunk indices from `next`; completion is when
// `done` reaches `total_chunks`.  shared_ptr ownership lets helper tasks
// that start after the loop already finished observe an exhausted counter
// and return without touching freed memory.
struct ThreadPool::LoopState {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t total_chunks = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> abandoned{false};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t concurrency) {
  SYBILTD_CHECK(concurrency >= 1, "thread pool needs at least one thread");
  workers_.reserve(concurrency);
  auto& registry = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < concurrency; ++i) {
    auto worker = std::make_unique<Worker>();
    // Per-worker counters are keyed by index, so successive pools of the
    // same size (benchmark sweeps, set_global_concurrency) share them.
    const std::string prefix = "threadpool.worker" + std::to_string(i);
    worker->submitted = &registry.counter(prefix + ".submitted",
                                          "tasks routed to this worker");
    worker->steals = &registry.counter(prefix + ".steals",
                                       "tasks this worker stole");
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(concurrency);
  for (std::size_t i = 0; i < concurrency; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
  // Tasks still queued were never started and are dropped with the deques.
  // parallel_for never depends on helpers running (the caller claims every
  // chunk itself if it must), so no loop can be stranded by this.
}

void ThreadPool::submit(std::function<void()> task) {
  SYBILTD_CHECK(task != nullptr, "submit() needs a callable task");
  std::size_t target;
  if (tl_worker_pool == this) {
    target = tl_worker_index;
  } else {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    target = next_worker_++ % workers_.size();
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->tasks.push_back(
        {std::move(task), std::chrono::steady_clock::now()});
  }
  PoolMetrics::get().submitted.inc();
  workers_[target]->submitted->inc();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop_or_steal(std::size_t self, Task& task) {
  bool found = false;
  {
    // Own deque, oldest first: a chain that re-submits itself lands at the
    // back and cannot starve an older chain sharing the deque.
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      found = true;
    }
  }
  for (std::size_t offset = 1; !found && offset < workers_.size(); ++offset) {
    Worker& victim = *workers_[(self + offset) % workers_.size()];
    {
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        found = true;
      }
    }
    if (found) {
      PoolMetrics::get().stolen.inc();
      workers_[self]->steals->inc();
    }
  }
  if (found) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    --pending_;
  }
  return found;
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_worker_pool = this;
  tl_worker_index = self;
  for (;;) {
    Task task;
    if (try_pop_or_steal(self, task)) {
      PoolMetrics& metrics = PoolMetrics::get();
      const auto start = std::chrono::steady_clock::now();
      metrics.queue_wait_us.record(elapsed_us(task.enqueued, start));
      task.fn();  // a throwing task terminates, as it would on a raw thread
      metrics.task_run_us.record(
          elapsed_us(start, std::chrono::steady_clock::now()));
      metrics.executed.inc();
      // Reset this worker's scratch arena between tasks: a borrow leaked
      // by the task is orphaned rather than handed to the next task.
      Workspace::local().end_task_scope();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] { return stopping_ || pending_ > 0; });
    if (stopping_) break;
  }
}

void ThreadPool::run_loop_chunks(const std::shared_ptr<LoopState>& state) {
  const bool outer = tl_in_parallel_region;
  tl_in_parallel_region = true;
  for (;;) {
    const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->total_chunks) break;
    if (!state->abandoned.load(std::memory_order_relaxed)) {
      try {
        const std::size_t begin = c * state->chunk;
        const std::size_t end = std::min(state->n, begin + state->chunk);
        for (std::size_t i = begin; i < end; ++i) (*state->body)(i);
      } catch (...) {
        state->abandoned.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
    }
    // acq_rel: publishes this chunk's writes to whoever observes `done`.
    const std::size_t finished =
        state->done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (finished == state->total_chunks) {
      {
        // Empty critical section pairs with the waiter's predicate check.
        std::lock_guard<std::mutex> lock(state->mutex);
      }
      state->cv.notify_all();
      break;
    }
  }
  tl_in_parallel_region = outer;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (concurrency() == 1 || tl_in_parallel_region || n == 1) {
    // Serial fallback: same index order, same writes, no synchronization.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<LoopState>();
  state->n = n;
  // ~4 chunks per thread: coarse enough to amortize dispatch, fine enough
  // that dynamic claiming balances uneven per-index cost.
  const std::size_t target_chunks = concurrency() * 4;
  state->chunk = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  state->total_chunks = (n + state->chunk - 1) / state->chunk;
  state->body = &fn;

  const std::size_t helpers =
      std::min(concurrency() - 1, state->total_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state] { run_loop_chunks(state); });
  }
  run_loop_chunks(state);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) >= state->total_chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

std::pair<std::size_t, std::size_t> ThreadPool::unrank_pair(std::size_t n,
                                                            std::size_t k) {
  SYBILTD_ASSERT(n >= 2 && k < pair_count(n));
  // Pairs before row i: off(i) = i*n - i*(i+1)/2.  Invert with the
  // quadratic formula, then fix up any floating-point off-by-one.
  const auto offset = [n](std::size_t i) { return i * n - i * (i + 1) / 2; };
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  double guess =
      std::floor((2.0 * nd - 1.0 -
                  std::sqrt((2.0 * nd - 1.0) * (2.0 * nd - 1.0) - 8.0 * kd)) /
                 2.0);
  std::size_t i = guess <= 0.0 ? 0 : static_cast<std::size_t>(guess);
  i = std::min(i, n - 2);
  while (i > 0 && offset(i) > k) --i;
  while (i + 1 < n - 1 && offset(i + 1) <= k) ++i;
  const std::size_t j = i + 1 + (k - offset(i));
  SYBILTD_ASSERT(j > i && j < n);
  return {i, j};
}

void ThreadPool::parallel_pairwise(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n < 2) return;
  parallel_for(pair_count(n), [n, &fn](std::size_t k) {
    const auto [i, j] = unrank_pair(n, k);
    fn(i, j);
  });
}

bool ThreadPool::in_parallel_region() { return tl_in_parallel_region; }

std::size_t ThreadPool::parse_concurrency(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  // Cap at something a process can actually spawn; protects against typos
  // like SYBILTD_THREADS=80000.
  return static_cast<std::size_t>(std::min(value, 1024ul));
}

std::size_t ThreadPool::configured_concurrency() {
  const std::size_t configured =
      parse_concurrency(std::getenv("SYBILTD_THREADS"));
  if (configured > 0) return configured;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(configured_concurrency());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_concurrency(std::size_t concurrency) {
  auto fresh = std::make_unique<ThreadPool>(concurrency);
  {
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_pool.swap(fresh);
  }
  // `fresh` now holds the previous pool; destroying it outside the lock
  // joins its workers without serializing new global() callers behind them.
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

void parallel_pairwise(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::global().parallel_pairwise(n, fn);
}

}  // namespace sybiltd
