// Bounded MPMC report queue — the ingestion edge of the streaming pipeline.
//
// A real MCS platform receives sensing reports from millions of account
// sessions concurrently; the aggregation side must be able to push back
// when it falls behind instead of growing without bound.  ReportQueue is a
// fixed-capacity ring buffer with one way in, BatchLock: a producer either
// waits for space (CampaignEngine::submit, lossless) or inspects free()
// and refuses what does not fit (try_submit / try_submit_batch, which a
// network front end maps to 429).
//
// All operations are linearizable under one internal mutex; the consumer
// pops micro-batches (pop_batch), which is how the pipeline workers
// amortize per-batch regrouping and refinement.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sybiltd::pipeline {

// One sensing report as it enters the platform.  Campaign, account and task
// are dense indices; the account universe of a campaign grows as new
// accounts appear in the stream.
struct Report {
  std::size_t campaign = 0;
  std::size_t account = 0;
  std::size_t task = 0;
  double value = 0.0;
  double timestamp_hours = 0.0;
  // steady_clock ticks (time_since_epoch().count()) stamped once per batch
  // at HTTP arrival; 0 = unstamped.  Carried through the queue so the shard
  // can export per-campaign ingest→apply / ingest→publish latency.
  std::uint64_t ingest_ticks = 0;
};

enum class PushResult { kOk, kRejected, kClosed };

class ReportQueue {
 public:
  explicit ReportQueue(std::size_t capacity);

  ReportQueue(const ReportQueue&) = delete;
  ReportQueue& operator=(const ReportQueue&) = delete;

  // The only way into the queue.  A BatchLock pins the queue's mutex so a
  // caller can *decide* how much of a multi-report run fits (free()/
  // closed()) and then insert exactly that run atomically — nothing can
  // close the queue or steal capacity between the decision and the insert.
  // This is what makes the engine's try_submit_batch() clean-prefix
  // contract exact instead of best-effort: a concurrent close() can never
  // land in the middle of a run and split it.
  //
  // Consumers are notified once on release (destructor), not per report, so
  // a 100-report run costs one lock round-trip instead of 100.
  //
  // Lock ordering: callers holding several BatchLocks at once must acquire
  // them in ascending shard-index order (see CampaignEngine::try_submit_batch)
  // so two batches can never deadlock.
  class BatchLock {
   public:
    explicit BatchLock(ReportQueue& queue);
    ~BatchLock();

    BatchLock(const BatchLock&) = delete;
    BatchLock& operator=(const BatchLock&) = delete;

    bool closed() const { return queue_.closed_; }
    // Slots available right now; stable while the lock is held.
    std::size_t free() const { return queue_.capacity_ - queue_.count_; }
    // Wait until free() > 0 or the queue is closed; returns !closed().  The
    // mutex is released while waiting, so what the caller read before the
    // wait no longer holds after it.
    bool wait_for_space();
    // Insert one report.  Precondition: !closed() && free() > 0.
    void push(const Report& report);

   private:
    ReportQueue& queue_;
    std::unique_lock<std::mutex> lock_;
    std::size_t pushed_ = 0;
  };

  // Pop up to `max` reports, appending to `out`.  Blocks up to `wait` for
  // the first report, then takes everything immediately available.  Returns
  // the number popped: 0 on timeout or when closed and empty.
  std::size_t pop_batch(std::vector<Report>& out, std::size_t max,
                        std::chrono::milliseconds wait);

  // Close the queue: BatchLock::closed() turns true (waiting producers
  // wake), and the consumer drains the remaining reports and then sees
  // pop_batch() == 0.
  void close();

  bool closed() const;
  bool empty() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  // Largest occupancy the queue ever reached — how close ingestion came to
  // triggering backpressure.  Monotonic; never reset.
  std::size_t high_watermark() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Report> ring_;
  std::size_t head_ = 0;            // index of the oldest report
  std::size_t count_ = 0;           // live reports in the ring
  std::size_t high_watermark_ = 0;  // max count_ ever observed
  bool closed_ = false;
};

}  // namespace sybiltd::pipeline
