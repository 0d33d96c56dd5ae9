// Pipeline shard: thread-confined incremental state for a subset of
// campaigns, plus the worker loop that consumes the shard's report queue.
//
// Each shard owns the campaigns the engine routed to it.  Per campaign it
// keeps an incremental mirror of exactly the state the batch framework
// derives from scratch:
//
//   * an observation store (per account, sorted by task; last write wins,
//     so re-submissions update in place as the paper's one-report-per-task
//     rule implies),
//   * a candidate::TaskSetIndex over the live task sets — a flat per-
//     account bitset plus, per task, the sorted list of the accounts whose
//     probe prefix (first ceil(|T|/3) tasks) holds it.  Applying or
//     evicting an observation flips one bit and moves at most one task into
//     and one out of the account's prefix, each a binary-search update of
//     one list; the Eq. (6) counts T_ij (tasks both did) and L_ij (tasks
//     either did alone) are popcounts of two rows, so no per-pair state
//     exists and memory stays linear in accounts plus observations,
//   * the connected-component grouping over the affinity > rho graph,
//     rebuilt lazily only when some report changed a task-set membership:
//     the dirty accounts' edges are re-derived from the index (prefix-
//     filtered posting lists for rho >= 0) and fed to
//     graph::IncrementalComponents,
//   * the Eq. (3)-(4) grouped table of the live observations, kept between
//     micro-batches and patched only where reports or groups changed: a
//     warm refine re-aggregates the cells of the (task, account) pairs
//     applied or evicted since the last refine, and of the accounts whose
//     group changed, and copies every other cell.  Each cell is keyed by
//     its group's smallest member, which survives relabelling; because
//     groups are numbered by first occurrence, (task, key) order is the
//     batch table's (task, group) order, and a cell aggregated from its
//     members in ascending account order has the batch value, so the
//     patched table equals a from-scratch group_data to the bit,
//   * warm CRH truth state at the group granularity, refined a few
//     warm-started iterations per micro-batch instead of re-running batch
//     CRH from scratch.
//
// Forgetting (the "evolving truth" setting): each observation records the
// campaign's arrival step when it was written, and its influence is
// decay^age with age counted in arrival steps.  Once the influence falls
// below influence_floor the observation is evicted, which updates the
// task-set index and (possibly) splits groups.  An observation therefore
// lives for a horizon of ln(influence_floor) / ln(decay) arrival steps;
// a re-submission re-stamps it and restarts its horizon.  Arrivals are
// kept in FIFO order, so eviction pops the oldest entries instead of
// scanning every slot.  With decay = 1 nothing is ever forgotten and a
// drained shard reproduces the batch core::run_framework output exactly
// (tested to 1e-9).
//
// Threading contract: all CampaignState mutation happens on the shard's
// worker thread; readers see results only through the published
// SnapshotCell.  The finalize handshake (request_finalize, then finalized
// or wait_finalized) is how the engine's drain barrier asks the worker to
// run every owned campaign to full convergence once its queue is empty.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "candidate/task_set_index.h"
#include "core/framework.h"
#include "core/grouping.h"
#include "graph/incremental.h"
#include "pipeline/report_queue.h"
#include "pipeline/snapshot.h"

namespace sybiltd {

namespace obs {
class Gauge;
class Histogram;
}  // namespace obs

namespace pipeline {

struct ShardOptions {
  // AG-TS edge threshold rho (Eq. 6): accounts with affinity > rho share a
  // group.
  double rho = 1.0;
  // Influence decay per arrival step within a campaign; 1 = never forget.
  double decay = 1.0;
  // Observations whose decayed influence drops below this are evicted.
  double influence_floor = 1e-4;
  // Warm-started CRH iterations per micro-batch (drain() always runs to
  // convergence instead).
  std::size_t refine_iterations = 2;
  // Eq. 3/4 aggregation and convergence configuration shared with the
  // batch framework.
  core::FrameworkOptions framework;
};

// Monotonic work counters, aggregated across a shard's campaigns.  Atomics
// so the engine can sum them while workers run; each is read with a relaxed
// load, so a sum across shards is per-counter monotone but not a single
// consistent cut (see EngineCounters).
struct ShardCounters {
  std::atomic<std::uint64_t> accepted{0};      // reports enqueued here
  std::atomic<std::uint64_t> rejected{0};      // try_submit refusals here
  std::atomic<std::uint64_t> applied{0};       // reports applied to states
  std::atomic<std::uint64_t> batches{0};       // micro-batches processed
  std::atomic<std::uint64_t> regroups{0};      // grouping rebuilds
  std::atomic<std::uint64_t> evictions{0};     // decayed-out observations
  std::atomic<std::uint64_t> publications{0};  // snapshots published
};

// Incremental per-campaign state.  Single-writer: only the owning shard's
// worker thread calls the mutating members.
class CampaignState {
 public:
  CampaignState(std::size_t campaign, std::size_t task_count,
                const ShardOptions* options, SnapshotCell* cell,
                ShardCounters* counters);

  std::size_t campaign() const { return campaign_; }
  std::size_t task_count() const { return task_count_; }
  std::size_t account_count() const { return observations_.size(); }
  std::size_t live_observations() const { return live_; }
  std::uint64_t applied_reports() const { return applied_; }

  // Upsert one report: new (account, task) memberships enter the task-set
  // index and dirty the grouping; repeat reports only refresh value and
  // age.  Either way the report's grouped cell is re-aggregated by the
  // next refine.
  void apply(const Report& report);

  // Drop observations whose influence decayed below the floor (no-op when
  // decay = 1).  Membership removals dirty the grouping.  Pops the arrival
  // FIFO while its oldest entry has decayed out: O(evicted + upserted)
  // rather than a scan of every slot.
  void evict_stale();

  // Current grouping; rebuilt from the task-set index when dirty.
  const core::AccountGrouping& grouping();

  // Refine the warm truth state and publish a fresh snapshot.  The warm
  // path patches the grouped table and runs a few iterations;
  // to_convergence rebuilds the table from the store with the batch cell
  // build and runs the batch run_framework iteration on it.
  void refine_and_publish(bool to_convergence);

  // Reconstruct the batch-framework view of the live observations (a test
  // oracle and diagnostic; no refine path builds it).
  core::FrameworkInput as_framework_input() const;

  // The grouped table as of the last refine_and_publish.
  const core::GroupedData& grouped_table() const { return table_; }

 private:
  struct Slot {
    std::size_t task = 0;
    double value = 0.0;
    double timestamp_hours = 0.0;
    std::uint64_t born = 0;  // arrival step, for decay
  };

  // One apply() in arrival order; `born` tells a live slot's latest
  // arrival from one an upsert has since superseded.
  struct Arrival {
    std::size_t account = 0;
    std::size_t task = 0;
    std::uint64_t born = 0;
  };

  void ensure_account(std::size_t account);
  void mark_dirty(std::size_t account);
  // Bring table_ up to date with the store under `grouping` by patching
  // the dirty cells; returns the number of cells re-aggregated.
  std::size_t patch_table(const core::AccountGrouping& grouping);
  // Rebuild table_ from the whole store (the drain path).
  void rebuild_table(const core::AccountGrouping& grouping);

  std::size_t campaign_;
  std::size_t task_count_;
  const ShardOptions* options_;
  SnapshotCell* cell_;
  ShardCounters* counters_;

  // Per-account observations sorted by task (at most one slot per task).
  std::vector<std::vector<Slot>> observations_;
  // Live task sets (bitsets + posting lists) behind every regroup.
  candidate::TaskSetIndex task_sets_;
  // Arrivals oldest first (only kept when decay < 1).  Ages rise
  // monotonically towards the front, so the entries that decayed out are
  // exactly a prefix.
  std::deque<Arrival> arrivals_;

  core::AccountGrouping grouping_;
  bool grouping_dirty_ = false;
  // Lazy-regroup bookkeeping: accounts whose affinity row changed since the
  // last regroup.  Regrouping only re-derives these accounts' edges, each
  // from TaskSetIndex::neighbors (for rho >= 0 only the posting lists of
  // its first |T| - floor(2|T|/3) tasks are probed; rho < 0 verifies every
  // account), and hands them to components_.
  std::vector<std::uint8_t> dirty_account_;
  std::vector<std::uint32_t> dirty_list_;
  graph::IncrementalComponents components_;
  std::vector<std::uint32_t> neighbors_;  // regroup scratch
  std::uint64_t component_rebuilds_seen_ = 0;
  std::uint64_t entries_verified_seen_ = 0;

  std::vector<double> truths_;         // warm CRH state, per task
  std::vector<double> group_weights_;  // last iterated weights, per group

  // The grouped table as of the last refine, and the patch target that is
  // swapped with it (both keep their capacity).
  core::GroupedData table_;
  core::GroupedData next_table_;
  // Per cell of table_ / next_table_: the cell's key, the smallest member
  // of its group.
  std::vector<std::uint32_t> cell_key_;
  std::vector<std::uint32_t> next_cell_key_;
  // Per account: its key as of the last refine.
  std::vector<std::uint32_t> account_key_;
  // (account << 32 | task) of every report applied or evicted since the
  // last refine; duplicates allowed.
  std::vector<std::uint64_t> dirty_reports_;
  // The grouping was rebuilt since the last refine, so keys may differ
  // from account_key_.
  bool keys_stale_ = false;
  // Patch scratch: (task << 32 | key) of the cells to re-aggregate; the
  // same as each task's distinct keys, ascending, in
  // dirty_keys_[dirty_begin_[j], dirty_begin_[j + 1]); the tasks that have
  // one; one cell's member values.
  std::vector<std::uint64_t> dirty_marks_;
  std::vector<std::uint32_t> dirty_begin_;
  std::vector<std::uint32_t> dirty_keys_;
  std::vector<std::uint32_t> dirty_tasks_;
  std::vector<double> member_values_;
  std::vector<double> normalizers_;  // per task, over table_

  std::uint64_t step_ = 0;     // arrivals, ages decay
  std::uint64_t applied_ = 0;  // reports applied (including upserts)
  std::uint64_t version_ = 0;  // snapshot publications
  std::size_t live_ = 0;       // distinct (account, task) pairs held
  // Marker used by the worker to dedupe touched campaigns per micro-batch.
  bool touched_ = false;
  // Label value for this campaign's series in the obs registry's labeled
  // families (pipeline.ingest_to_*_us{campaign=...}); cached so the
  // per-report family lookup never allocates.
  std::string label_;
  // Series resolved once at construction: at() takes a shared lock plus a
  // hash probe, which is measurable at per-report frequency.  Family
  // references stay valid forever (series live in a deque); after an
  // eviction the pointer counts toward whatever label the slot was
  // reassigned to, which the family contract documents as acceptable.
  obs::Histogram* ingest_to_apply_hist_ = nullptr;
  obs::Histogram* ingest_to_publish_hist_ = nullptr;
  // Ingest stamps of reports applied since the last publication; drained
  // into the ingest→publish histogram when the covering snapshot goes out.
  // Bounded by the shard's micro-batch size between publications.
  std::vector<std::uint64_t> pending_publish_ticks_;

  friend class Shard;
};

class Shard {
 public:
  // `index` is the shard's position in the engine — it is the `shard` label
  // on the queue-occupancy gauge family (`pipeline.shard.queue_depth{shard=
  // <index>}` / `.queue_high_watermark`), so repeated engine constructions
  // reuse the same registry series.
  Shard(std::size_t index, const ShardOptions& options,
        std::size_t queue_capacity, std::size_t max_batch);

  // Register an owned campaign.  Must happen before the engine schedules
  // step(); publishes the version-0 empty snapshot so readers never observe
  // a null cell.
  void add_campaign(std::size_t campaign, std::size_t task_count,
                    SnapshotCell* cell);

  // Thread-safe registration while the shard chain runs (the engine's live
  // add_campaign path).  The worker adopts pending campaigns at the top of
  // every step — always before applying a popped batch and before honoring
  // a finalize request, so a report or drain that post-dates the hand-off
  // can never observe the campaign missing.
  void enqueue_campaign(std::size_t campaign, std::size_t task_count,
                        SnapshotCell* cell);

  ReportQueue& queue() { return queue_; }
  const ShardCounters& counters() const { return counters_; }
  std::size_t index() const { return index_; }

  // Record the outcome of a push into this shard's queue (called by the
  // engine's submit path; thread-safe relaxed increments).
  void record_push(PushResult result);

  // Bulk form of record_push(kOk) for the batched submit path: one pair of
  // counter updates per run instead of one per report.
  void record_accepted(std::size_t n);

  // How long an idle step() waits for a report before it checks for a
  // finalize request: a requested drain starts at most this late.
  static constexpr std::chrono::milliseconds kIdlePoll{2};

  // One cooperative scheduling round: pop one micro-batch and process it,
  // or (when idle) honor a pending finalize request.  Returns false once
  // the queue is closed and drained — after running any finalize that
  // raced with shutdown — at which point the shard's chain ends.  The
  // engine schedules step() as a self-resubmitting thread-pool task, so a
  // shard never monopolizes a pool worker between batches.
  bool step();

  // Drain barrier: ask the worker to run every owned campaign to full
  // convergence once its queue is empty.  Returns a ticket for finalized()
  // (non-blocking) or wait_finalized().  Callers must not submit
  // concurrently with a drain they expect to cover those reports.
  std::uint64_t request_finalize();
  bool finalized(std::uint64_t ticket) const;
  void wait_finalized(std::uint64_t ticket);

  // Test/diagnostic access to a campaign's state.  Only safe when the
  // worker is not running (before start or after the engine stopped, whose
  // join provides the happens-before edge).
  const CampaignState* campaign_state(std::size_t campaign) const;

 private:
  void process_batch(const std::vector<Report>& batch);
  void finalize_all();
  // Install campaigns registered via enqueue_campaign (worker thread only).
  void adopt_pending_campaigns();

  struct PendingCampaign {
    std::size_t campaign = 0;
    std::size_t task_count = 0;
    SnapshotCell* cell = nullptr;
  };

  std::size_t index_;
  ShardOptions options_;
  std::size_t max_batch_;
  ReportQueue queue_;
  // Registry gauges for this shard's queue occupancy, refreshed once per
  // step() round (never on the producer path).
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* queue_hwm_gauge_ = nullptr;
  std::unordered_map<std::size_t, CampaignState> states_;
  ShardCounters counters_;
  // Reused micro-batch buffer; only touched from step(), which the engine
  // runs strictly sequentially per shard.
  std::vector<Report> batch_;

  std::atomic<std::uint64_t> finalize_requested_{0};
  std::atomic<std::uint64_t> finalize_done_{0};
  std::mutex finalize_mutex_;
  std::condition_variable finalize_cv_;

  // Campaigns registered while the chain runs, waiting for worker adoption.
  std::mutex pending_mutex_;
  std::vector<PendingCampaign> pending_campaigns_;
};

}  // namespace pipeline
}  // namespace sybiltd
