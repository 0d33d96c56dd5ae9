// Test helper: freeze the shared thread pool so no shard chain runs.
//
// The engine's shards are chains of tasks on ThreadPool::global().
// ParkedPool shrinks that pool to one worker and parks it on a blocking
// task, so nothing pops a shard queue and no drain can finalize until
// release().  That makes a full queue or a pending drain a state a test
// can hold for as long as it needs, instead of a race.
//
// Construct it before the engine or server it freezes, and call release()
// before stopping that engine (stop() waits for the shard chains, which
// need the pool).  The destructor releases and restores the configured
// pool size, so it must run after the engine is gone.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"

namespace sybiltd {

class ParkedPool {
 public:
  ParkedPool() {
    ThreadPool::set_global_concurrency(1);
    ThreadPool::global().submit([this] {
      running_.store(true);
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return released_; });
    });
    while (!running_.load()) std::this_thread::yield();
  }

  ~ParkedPool() {
    release();
    ThreadPool::set_global_concurrency(ThreadPool::configured_concurrency());
  }

  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::atomic<bool> running_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

}  // namespace sybiltd
