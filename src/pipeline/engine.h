// CampaignEngine — the concurrent campaign engine for continuous
// Sybil-resistant truth discovery.
//
// Topology:
//
//   producers ──submit()──► per-shard bounded ReportQueue (backpressure)
//                                │
//                  shard step() chain on ThreadPool::global()
//              micro-batch → apply → evict → regroup → refine
//                                │
//                       SnapshotCell per campaign
//                                │
//   readers ──snapshot()──► immutable CampaignSnapshot (wait-free read)
//
// Campaigns are routed to shards by campaign id.  Each shard runs as a
// self-resubmitting chain of Shard::step() tasks on the process-wide
// ThreadPool — the same pool the batch kernels use, so one concurrency
// budget (SYBILTD_THREADS) governs ingestion and quadratic regrouping.
// Chain tasks for one shard never overlap (the next step is submitted
// only after the previous one returns, and the pool's queue hand-off
// provides the happens-before edge between consecutive steps even when
// they land on different workers), so each shard's state keeps exactly
// the single-writer discipline it had with a dedicated thread.  Reports
// for one campaign are therefore applied in a single total order even
// with many producers, and the engine's counters make loss/duplication
// observable: after drain(), accepted == applied and every accepted
// report is reflected in exactly one campaign state.
//
// drain() is the batch-equivalence barrier: it waits until every accepted
// report has been applied, then has each worker run its campaigns to full
// convergence through the same core::run_framework code path the one-shot
// evaluation uses — with decay = 1 a drained snapshot matches the batch
// result on identical data (tested to 1e-9).  It is request_drain() plus a
// wait; an event loop that must not block calls request_drain() and polls
// drained() instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pipeline/report_queue.h"
#include "pipeline/routing.h"
#include "pipeline/shard.h"
#include "pipeline/snapshot.h"

namespace sybiltd::pipeline {

struct EngineOptions {
  // Shards; each owns a partition of the campaigns and runs as one step()
  // chain on the shared thread pool.
  std::size_t shard_count = 2;
  // Capacity of each shard's ingestion queue.
  std::size_t queue_capacity = 4096;
  // Micro-batch size cap per scheduling round.
  std::size_t max_batch = 256;
  // Grouping / decay / refinement configuration shared by all shards.
  ShardOptions shard;
};

// Point-in-time view of one shard: its work counters plus the state of its
// ingestion queue.  Queue depth is instantaneous; everything else is
// monotonic.
struct ShardStatus {
  std::size_t shard = 0;                 // shard index in the engine
  std::size_t queue_depth = 0;           // reports waiting right now
  std::size_t queue_capacity = 0;        // configured ring capacity
  std::size_t queue_high_watermark = 0;  // max occupancy ever observed
  std::uint64_t accepted = 0;            // reports enqueued to this shard
  std::uint64_t rejected = 0;            // try_submit refusals here
  std::uint64_t applied = 0;             // reports applied to states
  std::uint64_t batches = 0;             // micro-batches processed
  std::uint64_t regroups = 0;            // grouping rebuilds
  std::uint64_t evictions = 0;           // observations decayed out
  std::uint64_t publications = 0;        // snapshots published
};

// Engine-wide counters.  Each total is the sum of per-shard atomics read
// with relaxed loads while the workers run, so individual counters are
// monotonic but the struct is not one consistent cut: a sum taken
// mid-stream may pair a shard's post-batch `applied` with another's
// pre-batch `batches`.  Quiescence (after drain() has covered every
// submit(), or after stop()) is what makes cross-counter invariants such
// as accepted == applied hold exactly.
struct EngineCounters {
  std::uint64_t submitted = 0;  // submit() calls that passed validation
  std::uint64_t submitted_batches = 0;  // try_submit_batch() calls
  std::uint64_t accepted = 0;   // reports enqueued
  std::uint64_t rejected = 0;   // refused by try_submit on a full queue
  std::uint64_t applied = 0;    // reports applied to campaign states
  std::uint64_t batches = 0;    // micro-batches processed
  std::uint64_t regroups = 0;   // incremental grouping rebuilds
  std::uint64_t evictions = 0;  // observations decayed out
  std::uint64_t publications = 0;  // snapshots published
  // Per-shard breakdown (same relaxed-read semantics), one entry per
  // shard in index order.
  std::vector<ShardStatus> shards;
};

// Outcome of a wire-facing try_submit(): validation folded into the result
// so a network front end can map every case to a status code without
// exceptions on the ingestion hot path.
enum class SubmitStatus {
  kAccepted,         // enqueued
  kQueueFull,        // shard queue full right now (backpressure; retry)
  kClosed,           // queues closed, engine shutting down
  kNotRunning,       // start() not called yet, or already stopped
  kUnknownCampaign,  // campaign id never registered
  kInvalidTask,      // task index out of range for the campaign
  kInvalidValue,     // NaN value
};

// Outcome of try_submit_batch(): the clean prefix of the batch that was
// enqueued plus the status of the first report that was not.  Equivalent by
// construction to calling try_submit() per report and stopping at the first
// non-kAccepted result (the contract the ingest handler's 202/429 mapping
// is built on, and that the tests assert).
struct SubmitBatchResult {
  std::size_t accepted = 0;  // reports [0, accepted) were enqueued
  // kAccepted iff the whole batch was enqueued; otherwise the status a
  // per-report try_submit(reports[accepted]) would have returned.
  SubmitStatus status = SubmitStatus::kAccepted;
};

// One drain barrier in flight: a finalize ticket per shard, from
// CampaignEngine::request_drain().
struct DrainTicket {
  std::vector<std::uint64_t> shard_tickets;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineOptions options = {});
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  // Register a campaign and return its dense id.  Callable both before
  // start() and on a running engine (the wire lifecycle path): a live
  // registration publishes the version-0 empty snapshot immediately and
  // hands the campaign to its shard, whose worker adopts it at the top of
  // its next step — strictly before any report for the new id can be
  // applied, because submit()/try_submit() only accept the id after the
  // hand-off is visible.
  std::size_t add_campaign(std::size_t task_count);

  // Schedule the shard chains on ThreadPool::global().  Idempotent calls
  // are an error.  The global pool must not be replaced (e.g. via
  // ThreadPool::set_global_concurrency) while the engine is running.
  void start();

  // Enqueue one report, waiting while its shard queue is full (lossless:
  // producers slow to the workers' pace).  Returns kOk, or kClosed when
  // stop() closes the queue first, including mid-wait.  Validates
  // campaign/task/value; requires a started engine.
  PushResult submit(const Report& report);

  // Non-blocking, non-throwing submit for network front ends: a full shard
  // queue is refused (kQueueFull) rather than waited on, so an event loop
  // can never be stalled, and the validation outcome is folded into the
  // returned status instead of thrown.
  // Wait-free up to the shard queue's own mutex: validation reads the
  // routing table, never a lock shared with add_campaign().
  SubmitStatus try_submit(const Report& report);

  // Batched try_submit: validates every report against one routing-table
  // snapshot, groups the valid prefix by shard, and pushes each shard's run
  // into its queue under a single lock acquisition (ReportQueue::BatchLock),
  // so an N-report wire batch costs one queue lock per touched shard rather
  // than N.  Clean-prefix semantics: reports [0, accepted) are enqueued in
  // order and nothing after the first failing report is, exactly as a
  // per-report try_submit() loop would behave.
  SubmitBatchResult try_submit_batch(std::span<const Report> reports);

  // Task count of a registered campaign, or 0 when the id is unknown —
  // lets wire handlers pre-validate a whole batch before any shard work.
  std::size_t campaign_task_count(std::size_t campaign) const;

  // Wait-free read of the campaign's latest published snapshot.  Never
  // null: campaigns publish a version-0 empty snapshot on registration.
  std::shared_ptr<const CampaignSnapshot> snapshot(std::size_t campaign) const;

  // Barrier: wait until every accepted report has been applied, then run
  // every campaign to full convergence and publish final snapshots.
  // Callable repeatedly; must not race with submit() calls whose reports
  // the barrier is expected to cover.  Equivalent to request_drain() and
  // waiting until drained() holds.
  void drain();

  // The non-blocking halves of drain(): request_drain() asks every shard
  // for a finalize pass covering the reports accepted so far, and
  // drained() tells whether all of them have run.
  DrainTicket request_drain();
  bool drained(const DrainTicket& ticket) const;

  // Close the queues and wait for every shard chain to finish (remaining
  // queued reports are applied first).  Idempotent; also run by the
  // destructor.
  void stop();

  EngineCounters counters() const;

  std::size_t campaign_count() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(std::size_t campaign) const {
    return campaign % shards_.size();
  }

  // Test/diagnostic access to a campaign's shard state; only valid while
  // the shard chains are not running (e.g. after stop()).
  const CampaignState* debug_state(std::size_t campaign) const;

 private:
  // Submit the next step of a shard's chain to the shared pool.
  void schedule_shard(Shard* shard);

  EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Campaign registry.  campaigns_mutex_ serializes writers only
  // (add_campaign and its shard hand-off); every submission/snapshot path
  // validates and routes through routing_ wait-free, so producers never
  // contend with registration or with each other here.  cells_ owns the
  // SnapshotCells the routing entries point at; it is only touched under
  // the mutex and the cells themselves are stable once created.
  mutable std::mutex campaigns_mutex_;
  std::vector<std::unique_ptr<SnapshotCell>> cells_;  // per campaign
  RoutingTable routing_;
  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};

  // Shard chains still alive on the pool; stop() waits for zero.
  std::mutex chains_mutex_;
  std::condition_variable chains_cv_;
  std::size_t live_chains_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> submitted_batches_{0};
};

}  // namespace sybiltd::pipeline
