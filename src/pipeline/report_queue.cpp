#include "pipeline/report_queue.h"

#include <algorithm>

#include "common/error.h"

namespace sybiltd::pipeline {

ReportQueue::ReportQueue(std::size_t capacity)
    : capacity_(capacity), ring_(capacity) {
  SYBILTD_CHECK(capacity >= 1, "queue capacity must be positive");
}

ReportQueue::BatchLock::BatchLock(ReportQueue& queue)
    : queue_(queue), lock_(queue.mutex_) {}

void ReportQueue::BatchLock::push(const Report& report) {
  SYBILTD_CHECK(!queue_.closed_ && queue_.count_ < queue_.capacity_,
                "BatchLock::push needs an open queue with free space");
  queue_.ring_[(queue_.head_ + queue_.count_) % queue_.capacity_] = report;
  ++queue_.count_;
  ++pushed_;
}

bool ReportQueue::BatchLock::wait_for_space() {
  queue_.not_full_.wait(lock_, [&] {
    return queue_.count_ < queue_.capacity_ || queue_.closed_;
  });
  return !queue_.closed_;
}

ReportQueue::BatchLock::~BatchLock() {
  if (pushed_ > 0 && queue_.count_ > queue_.high_watermark_) {
    queue_.high_watermark_ = queue_.count_;
  }
  lock_.unlock();
  // One wake-up per run; each shard queue has a single consumer chain, so
  // notify_one is sufficient even for multi-report runs.
  if (pushed_ > 0) queue_.not_empty_.notify_one();
}

std::size_t ReportQueue::pop_batch(std::vector<Report>& out, std::size_t max,
                                   std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (count_ == 0 && !closed_) {
    not_empty_.wait_for(lock, wait, [&] { return count_ > 0 || closed_; });
  }
  const std::size_t n = std::min(max, count_);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
  }
  count_ -= n;
  if (n > 0) {
    lock.unlock();
    not_full_.notify_all();
  }
  return n;
}

void ReportQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool ReportQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

bool ReportQueue::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0;
}

std::size_t ReportQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::size_t ReportQueue::high_watermark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_watermark_;
}

}  // namespace sybiltd::pipeline
