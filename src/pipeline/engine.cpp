#include "pipeline/engine.h"

#include <cmath>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "truth/truth_discovery.h"

namespace sybiltd::pipeline {

CampaignEngine::CampaignEngine(EngineOptions options)
    : options_(std::move(options)) {
  SYBILTD_CHECK(options_.shard_count >= 1, "need at least one shard");
  SYBILTD_CHECK(options_.queue_capacity >= 1,
                "queue capacity must be positive");
  shards_.reserve(options_.shard_count);
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        s, options_.shard, options_.queue_capacity, options_.max_batch));
  }
}

CampaignEngine::~CampaignEngine() { stop(); }

std::size_t CampaignEngine::add_campaign(std::size_t task_count) {
  SYBILTD_CHECK(task_count > 0, "campaign needs at least one task");
  std::lock_guard<std::mutex> lock(campaigns_mutex_);
  const std::size_t campaign = routing_.size();
  auto cell = std::make_unique<SnapshotCell>();
  if (!started_.load(std::memory_order_acquire)) {
    // Pre-start registration: the shard is not running, install directly.
    shards_[shard_of(campaign)]->add_campaign(campaign, task_count,
                                              cell.get());
  } else {
    SYBILTD_CHECK(running_.load(std::memory_order_acquire),
                  "cannot add campaigns to a stopped engine");
    // Live registration (the wire lifecycle path).  Publish the version-0
    // empty snapshot from here so readers never observe a null cell, then
    // hand the campaign to its shard; the worker adopts it at the top of
    // its next step.  The hand-off happens before routing_.append() makes
    // the id visible to submit()/try_submit() — the table's release store
    // is the last thing this function does — so a report can never reach a
    // shard before its campaign's pending entry (publish-before-visible).
    auto snapshot = std::make_shared<CampaignSnapshot>();
    snapshot->campaign = campaign;
    snapshot->truths.assign(task_count, truth::nan_value());
    cell->publish(std::move(snapshot));
    shards_[shard_of(campaign)]->enqueue_campaign(campaign, task_count,
                                                  cell.get());
  }
  RoutingTable::Entry entry;
  entry.task_count = task_count;
  entry.cell = cell.get();
  cells_.push_back(std::move(cell));
  const std::size_t published = routing_.append(entry);
  SYBILTD_CHECK(published == campaign, "routing table out of sync");
  return campaign;
}

std::size_t CampaignEngine::campaign_count() const { return routing_.size(); }

std::size_t CampaignEngine::campaign_task_count(std::size_t campaign) const {
  const RoutingTable::Entry* entry = routing_.find(campaign);
  return entry != nullptr ? entry->task_count : 0;
}

void CampaignEngine::start() {
  SYBILTD_CHECK(!started_.exchange(true, std::memory_order_acq_rel),
                "engine already started");
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(chains_mutex_);
    live_chains_ = shards_.size();
  }
  for (auto& shard : shards_) schedule_shard(shard.get());
}

void CampaignEngine::schedule_shard(Shard* shard) {
  // Each task runs exactly one cooperative step, then either re-submits
  // itself (so other pool work interleaves between micro-batches) or
  // retires the chain.  The pool's own-deque FIFO guarantees a chain on a
  // saturated pool still makes progress without starving its deque-mates.
  ThreadPool::global().submit([this, shard] {
    if (shard->step()) {
      schedule_shard(shard);
      return;
    }
    std::lock_guard<std::mutex> lock(chains_mutex_);
    --live_chains_;
    // Notify under the lock: the engine may be destroyed as soon as the
    // waiter in stop() observes zero.
    chains_cv_.notify_all();
  });
}

PushResult CampaignEngine::submit(const Report& report) {
  SYBILTD_CHECK(running_.load(std::memory_order_acquire),
                "submit() needs a running engine");
  const RoutingTable::Entry* entry = routing_.find(report.campaign);
  SYBILTD_CHECK(entry != nullptr, "unknown campaign");
  SYBILTD_CHECK(report.task < entry->task_count,
                "task index out of range for the campaign");
  SYBILTD_CHECK(!std::isnan(report.value), "report value must not be NaN");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[shard_of(report.campaign)];
  PushResult result = PushResult::kClosed;
  {
    ReportQueue::BatchLock lock(shard.queue());
    if (lock.wait_for_space()) {
      lock.push(report);
      result = PushResult::kOk;
    }
  }
  shard.record_push(result);
  return result;
}

SubmitStatus CampaignEngine::try_submit(const Report& report) {
  if (!running_.load(std::memory_order_acquire)) {
    return SubmitStatus::kNotRunning;
  }
  // Wait-free validation: one acquire load of the routing table's size plus
  // an indexed read.  N event-loop threads validating concurrently never
  // serialize against each other or against add_campaign().
  const RoutingTable::Entry* entry = routing_.find(report.campaign);
  if (entry == nullptr) return SubmitStatus::kUnknownCampaign;
  if (report.task >= entry->task_count) return SubmitStatus::kInvalidTask;
  if (std::isnan(report.value)) return SubmitStatus::kInvalidValue;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[shard_of(report.campaign)];
  PushResult result = PushResult::kRejected;
  {
    ReportQueue::BatchLock lock(shard.queue());
    if (lock.closed()) {
      result = PushResult::kClosed;
    } else if (lock.free() > 0) {
      lock.push(report);
      result = PushResult::kOk;
    }
  }
  shard.record_push(result);
  switch (result) {
    case PushResult::kOk:
      return SubmitStatus::kAccepted;
    case PushResult::kClosed:
      return SubmitStatus::kClosed;
    case PushResult::kRejected:
      break;
  }
  return SubmitStatus::kQueueFull;
}

SubmitBatchResult CampaignEngine::try_submit_batch(
    std::span<const Report> reports) {
  SubmitBatchResult result;
  if (reports.empty()) return result;
  if (!running_.load(std::memory_order_acquire)) {
    result.status = SubmitStatus::kNotRunning;
    return result;
  }
  submitted_batches_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1 — validate the whole batch against one snapshot of the routing
  // table (a single acquire of its size): the valid prefix is [0, valid),
  // and validation_stop is what a per-report try_submit(reports[valid])
  // would have returned.
  const std::size_t known = routing_.size();
  std::size_t valid = reports.size();
  SubmitStatus validation_stop = SubmitStatus::kAccepted;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& report = reports[i];
    if (report.campaign >= known) {
      valid = i;
      validation_stop = SubmitStatus::kUnknownCampaign;
      break;
    }
    if (report.task >= routing_.entry_unchecked(report.campaign).task_count) {
      valid = i;
      validation_stop = SubmitStatus::kInvalidTask;
      break;
    }
    if (std::isnan(report.value)) {
      valid = i;
      validation_stop = SubmitStatus::kInvalidValue;
      break;
    }
  }
  if (valid == 0) {
    result.status = validation_stop;
    return result;
  }

  // Phase 2 — lock every shard the valid prefix touches, in ascending shard
  // order so concurrent batches cannot deadlock.  Holding all the locks
  // pins each queue's free space and closed flag, which is what makes the
  // accepted prefix exact: nothing can close a queue or steal capacity
  // between the decision and the insert.
  const std::size_t shard_count = shards_.size();
  std::vector<char> used(shard_count, 0);
  for (std::size_t i = 0; i < valid; ++i) {
    used[shard_of(reports[i].campaign)] = 1;
  }
  std::vector<std::optional<ReportQueue::BatchLock>> locks(shard_count);
  std::vector<std::size_t> budget(shard_count, 0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (used[s]) {
      locks[s].emplace(shards_[s]->queue());
      budget[s] = locks[s]->free();
    }
  }

  // Phase 3 — walk the prefix in order, pushing until a queue is closed or
  // out of space.  `accepted` stays a clean prefix of the original batch
  // even when its reports interleave several shards.
  SubmitStatus push_stop = SubmitStatus::kAccepted;
  std::size_t accepted = 0;
  std::vector<std::size_t> per_shard_accepted(shard_count, 0);
  for (; accepted < valid; ++accepted) {
    const Report& report = reports[accepted];
    const std::size_t s = shard_of(report.campaign);
    if (locks[s]->closed()) {
      push_stop = SubmitStatus::kClosed;
      break;
    }
    if (budget[s] == 0) {
      push_stop = SubmitStatus::kQueueFull;
      break;
    }
    locks[s]->push(report);
    --budget[s];
    ++per_shard_accepted[s];
  }
  locks.clear();  // release + notify consumers, one wake-up per shard

  // Counter parity with the per-report loop: submitted_ counts reports that
  // passed validation and reached the push stage (the stopping report
  // included when it failed at the queue, not when it failed validation),
  // and the queue-full stop records one rejection on its shard.
  const bool stopped_at_queue = push_stop == SubmitStatus::kQueueFull;
  submitted_.fetch_add(
      accepted + (push_stop == SubmitStatus::kAccepted ? 0 : 1),
      std::memory_order_relaxed);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_[s]->record_accepted(per_shard_accepted[s]);
  }
  if (stopped_at_queue) {
    shards_[shard_of(reports[accepted].campaign)]->record_push(
        PushResult::kRejected);
  }

  result.accepted = accepted;
  if (accepted == reports.size()) {
    result.status = SubmitStatus::kAccepted;
  } else if (push_stop != SubmitStatus::kAccepted) {
    result.status = push_stop;
  } else {
    result.status = validation_stop;
  }
  return result;
}

std::shared_ptr<const CampaignSnapshot> CampaignEngine::snapshot(
    std::size_t campaign) const {
  const RoutingTable::Entry* entry = routing_.find(campaign);
  SYBILTD_CHECK(entry != nullptr, "unknown campaign");
  return entry->cell->read();
}

void CampaignEngine::drain() {
  const DrainTicket ticket = request_drain();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->wait_finalized(ticket.shard_tickets[s]);
  }
}

DrainTicket CampaignEngine::request_drain() {
  SYBILTD_CHECK(running_.load(std::memory_order_acquire),
                "drain() needs a running engine");
  DrainTicket ticket;
  ticket.shard_tickets.reserve(shards_.size());
  for (auto& shard : shards_) {
    ticket.shard_tickets.push_back(shard->request_finalize());
  }
  return ticket;
}

bool CampaignEngine::drained(const DrainTicket& ticket) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->finalized(ticket.shard_tickets[s])) return false;
  }
  return true;
}

void CampaignEngine::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->queue().close();
  std::unique_lock<std::mutex> lock(chains_mutex_);
  chains_cv_.wait(lock, [&] { return live_chains_ == 0; });
}

EngineCounters CampaignEngine::counters() const {
  EngineCounters totals;
  totals.submitted = submitted_.load(std::memory_order_relaxed);
  totals.submitted_batches = submitted_batches_.load(std::memory_order_relaxed);
  totals.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard->counters();
    ShardStatus status;
    status.shard = shard->index();
    status.queue_depth = shard->queue().size();
    status.queue_capacity = shard->queue().capacity();
    status.queue_high_watermark = shard->queue().high_watermark();
    status.accepted = c.accepted.load(std::memory_order_relaxed);
    status.rejected = c.rejected.load(std::memory_order_relaxed);
    status.applied = c.applied.load(std::memory_order_relaxed);
    status.batches = c.batches.load(std::memory_order_relaxed);
    status.regroups = c.regroups.load(std::memory_order_relaxed);
    status.evictions = c.evictions.load(std::memory_order_relaxed);
    status.publications = c.publications.load(std::memory_order_relaxed);
    totals.accepted += status.accepted;
    totals.rejected += status.rejected;
    totals.applied += status.applied;
    totals.batches += status.batches;
    totals.regroups += status.regroups;
    totals.evictions += status.evictions;
    totals.publications += status.publications;
    totals.shards.push_back(status);
  }
  return totals;
}

const CampaignState* CampaignEngine::debug_state(std::size_t campaign) const {
  SYBILTD_CHECK(!running_.load(std::memory_order_acquire),
                "debug_state is only safe while the workers are stopped");
  SYBILTD_CHECK(routing_.find(campaign) != nullptr, "unknown campaign");
  return shards_[shard_of(campaign)]->campaign_state(campaign);
}

}  // namespace sybiltd::pipeline
