#include "pipeline/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/error.h"
#include "core/data_grouping.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sybiltd::pipeline {

using truth::nan_value;

namespace {

// Process-wide registry mirror of the per-shard work counters, plus the
// micro-batch latency distribution.  Shards bump these alongside their own
// ShardCounters so obs::snapshot() covers the pipeline without holding a
// CampaignEngine pointer.
struct PipelineMetrics {
  obs::Counter& accepted = obs::MetricsRegistry::global().counter(
      "pipeline.accepted", "reports enqueued across all shards");
  obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "pipeline.rejected", "reports refused by try_submit on a full queue");
  obs::Counter& applied = obs::MetricsRegistry::global().counter(
      "pipeline.applied", "reports applied to campaign states");
  obs::Counter& batches = obs::MetricsRegistry::global().counter(
      "pipeline.batches", "micro-batches processed");
  obs::Counter& regroups = obs::MetricsRegistry::global().counter(
      "pipeline.regroups", "incremental grouping rebuilds");
  obs::Counter& regroup_uf_rebuilds = obs::MetricsRegistry::global().counter(
      "pipeline.regroups.uf_rebuilds",
      "union-find rebuilds forced by edge removals on the incremental path");
  obs::Counter& regroup_entries_verified =
      obs::MetricsRegistry::global().counter(
          "pipeline.regroup.entries_verified",
          "posting entries the incremental regroup handed to the set-join "
          "verify kernel");
  obs::Counter& evictions = obs::MetricsRegistry::global().counter(
      "pipeline.evictions", "observations decayed out");
  obs::Counter& publications = obs::MetricsRegistry::global().counter(
      "pipeline.publications", "campaign snapshots published");
  obs::Histogram& batch_us = obs::MetricsRegistry::global().histogram(
      "pipeline.batch_us", "micro-batch processing latency (us)");
  obs::Histogram& regroup_us = obs::MetricsRegistry::global().histogram(
      "pipeline.regroup_us",
      "regroup of one touched campaign per micro-batch (us)");
  obs::Histogram& refine_us = obs::MetricsRegistry::global().histogram(
      "pipeline.refine_us",
      "warm refine of one touched campaign per micro-batch: patch of the "
      "grouped table, normalizers, warm iterations; publish excluded (us)");
  obs::Counter& cells_recomputed = obs::MetricsRegistry::global().counter(
      "pipeline.refine.cells_recomputed",
      "grouped-table cells re-aggregated by warm refines");
  obs::Histogram& queue_wait_us = obs::MetricsRegistry::global().histogram(
      "pipeline.queue_wait_us",
      "time the oldest report of each micro-batch spent in a shard queue "
      "before the batch was applied (us)");
  // Per-campaign report-lifecycle latency.  Series are keyed by the
  // campaign id; when more campaigns than the cardinality cap ever exist,
  // the least-recently-active series folds into `_other`.
  obs::HistogramFamily& ingest_to_apply_us =
      obs::MetricsRegistry::global().histogram_family(
          "pipeline.ingest_to_apply_us", "campaign",
          "report latency from HTTP arrival to shard apply (us)");
  obs::HistogramFamily& ingest_to_publish_us =
      obs::MetricsRegistry::global().histogram_family(
          "pipeline.ingest_to_publish_us", "campaign",
          "report latency from HTTP arrival to the snapshot that first "
          "reflects it (us)");
  obs::GaugeFamily& shard_queue_depth =
      obs::MetricsRegistry::global().gauge_family(
          "pipeline.shard.queue_depth", "shard",
          "shard ingestion queue occupancy");
  obs::GaugeFamily& shard_queue_hwm =
      obs::MetricsRegistry::global().gauge_family(
          "pipeline.shard.queue_high_watermark", "shard",
          "max shard queue occupancy ever observed");

  static PipelineMetrics& get() {
    static PipelineMetrics metrics;
    return metrics;
  }
};

// Rate-limited warn stream for pipeline shed events: drops, rejects and
// decay evictions can fire per report under overload, so the log sees a
// bounded sample rather than one line per loss.
obs::LogRateLimiter& pipeline_warn_limiter() {
  static obs::LogRateLimiter limiter(/*per_second=*/10.0, /*burst=*/20.0);
  return limiter;
}

double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double ticks_to_us_since(std::uint64_t ingest_ticks,
                         std::chrono::steady_clock::time_point now) {
  const std::chrono::steady_clock::duration age =
      now.time_since_epoch() -
      std::chrono::steady_clock::duration(
          static_cast<std::chrono::steady_clock::rep>(ingest_ticks));
  return std::chrono::duration<double, std::micro>(age).count();
}

// A row's slot for `task`, or the slot before which it would be inserted.
template <typename Row>
auto find_task(Row& row, std::size_t task) {
  return std::lower_bound(
      row.begin(), row.end(), task,
      [](const auto& slot, std::size_t t) { return slot.task < t; });
}

// An account's key in the grouped table: the smallest member of its group,
// which, unlike the group's label, survives relabelling.
std::uint32_t key_of(const core::AccountGrouping& grouping,
                     std::size_t account) {
  return static_cast<std::uint32_t>(
      grouping.group(grouping.group_of(account))[0]);
}

// Two ids below 2^32 in one sortable word, `high` first.
std::uint64_t pack(std::size_t high, std::size_t low) {
  return static_cast<std::uint64_t>(high) << 32 | low;
}

}  // namespace

// --- CampaignState ---------------------------------------------------------

CampaignState::CampaignState(std::size_t campaign, std::size_t task_count,
                             const ShardOptions* options, SnapshotCell* cell,
                             ShardCounters* counters)
    : campaign_(campaign),
      task_count_(task_count),
      options_(options),
      cell_(cell),
      counters_(counters),
      task_sets_(task_count),
      truths_(task_count, nan_value()),
      normalizers_(task_count, 1.0),
      label_(std::to_string(campaign)) {
  SYBILTD_CHECK(task_count_ > 0, "campaign needs at least one task");
  table_.task_begin.assign(task_count_ + 1, 0);
  auto& metrics = PipelineMetrics::get();
  ingest_to_apply_hist_ = &metrics.ingest_to_apply_us.at(label_);
  ingest_to_publish_hist_ = &metrics.ingest_to_publish_us.at(label_);
  // Version-0 snapshot so readers never observe a null cell.
  auto snapshot = std::make_shared<CampaignSnapshot>();
  snapshot->campaign = campaign_;
  snapshot->truths = truths_;
  cell_->publish(std::move(snapshot));
}

void CampaignState::mark_dirty(std::size_t account) {
  if (dirty_account_.size() < observations_.size()) {
    dirty_account_.resize(observations_.size(), 0);
  }
  if (!dirty_account_[account]) {
    dirty_account_[account] = 1;
    dirty_list_.push_back(static_cast<std::uint32_t>(account));
  }
}

void CampaignState::ensure_account(std::size_t account) {
  const std::size_t n = observations_.size();
  if (account < n) return;
  task_sets_.resize(account + 1);  // first: it rejects ids past 32 bits
  observations_.resize(account + 1);
  account_key_.resize(account + 1);
  // Each fresh account is a new singleton, which changes the partition.
  grouping_dirty_ = true;
  for (std::size_t a = n; a <= account; ++a) {
    mark_dirty(a);
    account_key_[a] = static_cast<std::uint32_t>(a);
  }
}

void CampaignState::apply(const Report& report) {
  SYBILTD_ASSERT(report.campaign == campaign_ && report.task < task_count_);
  ensure_account(report.account);
  ++step_;
  ++applied_;
  auto& row = observations_[report.account];
  const auto it = find_task(row, report.task);
  dirty_reports_.push_back(pack(report.account, report.task));
  if (it != row.end() && it->task == report.task) {
    // Re-submission: last write wins, influence age resets.
    it->value = report.value;
    it->timestamp_hours = report.timestamp_hours;
    it->born = step_;
  } else {
    row.insert(it, Slot{report.task, report.value, report.timestamp_hours,
                        step_});
    ++live_;
    task_sets_.insert(report.account, report.task);
    grouping_dirty_ = true;
    mark_dirty(report.account);
  }
  if (options_->decay < 1.0) {
    arrivals_.push_back({report.account, report.task, step_});
  }
  if (report.ingest_ticks != 0) {
    pending_publish_ticks_.push_back(report.ingest_ticks);
  }
}

void CampaignState::evict_stale() {
  if (options_->decay >= 1.0) return;
  std::uint64_t evicted = 0;
  while (!arrivals_.empty()) {
    const Arrival oldest = arrivals_.front();
    const double age = static_cast<double>(step_ - oldest.born);
    if (!(std::pow(options_->decay, age) < options_->influence_floor)) break;
    arrivals_.pop_front();
    auto& row = observations_[oldest.account];
    const auto it = find_task(row, oldest.task);
    // An upsert since this arrival re-stamped the slot (or an eviction and
    // re-insert replaced it): a later FIFO entry owns it now.
    if (it == row.end() || it->task != oldest.task || it->born != oldest.born) {
      continue;
    }
    row.erase(it);
    dirty_reports_.push_back(pack(oldest.account, oldest.task));
    task_sets_.erase(oldest.account, oldest.task);
    grouping_dirty_ = true;
    mark_dirty(oldest.account);
    --live_;
    ++evicted;
  }
  if (evicted > 0) {
    counters_->evictions.fetch_add(evicted, std::memory_order_relaxed);
    PipelineMetrics::get().evictions.inc(evicted);
  }
  if (evicted > 0 && obs::log_enabled(obs::LogLevel::kDebug) &&
      pipeline_warn_limiter().allow()) {
    obs::LogEvent(obs::LogLevel::kDebug, "observations_evicted")
        .field("campaign", campaign_)
        .field("evicted", evicted)
        .field("live", live_);
  }
}

const core::AccountGrouping& CampaignState::grouping() {
  if (!grouping_dirty_) return grouping_;
  obs::TraceSpan span("campaign/regroup");
  span.arg("campaign", static_cast<double>(campaign_));
  const std::size_t n = observations_.size();
  span.arg("accounts", static_cast<double>(n));
  auto& metrics = PipelineMetrics::get();
  // Only accounts whose task set changed since the last regroup can have
  // different affinity edges (a report only mutates its own account's row
  // of the index), so re-deriving those accounts' neighbours and handing
  // them to IncrementalComponents yields the partition of the whole
  // affinity > rho graph, in canonical labels.
  span.arg("dirty", static_cast<double>(dirty_list_.size()));
  components_.resize(n);
  std::sort(dirty_list_.begin(), dirty_list_.end());
  for (std::uint32_t a : dirty_list_) {
    task_sets_.neighbors(a, options_->rho, neighbors_);
    components_.set_neighbors(a, neighbors_);
    dirty_account_[a] = 0;
  }
  dirty_list_.clear();
  grouping_ = core::AccountGrouping::from_labels(components_.labels());
  const std::uint64_t rebuilds = components_.rebuilds();
  metrics.regroup_uf_rebuilds.inc(rebuilds - component_rebuilds_seen_);
  component_rebuilds_seen_ = rebuilds;
  const std::uint64_t verified = task_sets_.entries_verified();
  metrics.regroup_entries_verified.inc(verified - entries_verified_seen_);
  entries_verified_seen_ = verified;
  grouping_dirty_ = false;
  keys_stale_ = true;
  counters_->regroups.fetch_add(1, std::memory_order_relaxed);
  metrics.regroups.inc();
  return grouping_;
}

core::FrameworkInput CampaignState::as_framework_input() const {
  core::FrameworkInput view;
  view.task_count = task_count_;
  view.accounts.resize(observations_.size());
  for (std::size_t i = 0; i < observations_.size(); ++i) {
    auto& reports = view.accounts[i].reports;
    reports.reserve(observations_[i].size());
    for (const Slot& slot : observations_[i]) {
      reports.push_back({slot.task, slot.value, slot.timestamp_hours});
    }
  }
  return view;
}

std::size_t CampaignState::patch_table(const core::AccountGrouping& grouping) {
  const core::DataGroupingOptions& options =
      options_->framework.data_grouping;
  // The cells to re-aggregate, as (task, key) marks: each changed report's
  // cell under the key its account had at the last refine and under its
  // current key; and for an account whose key changed, the cells of all
  // its live reports under both keys (its reports that left since are
  // changed reports).  No other cell gained, lost or changed a member
  // value.
  dirty_marks_.clear();
  for (const std::uint64_t report : dirty_reports_) {
    const std::size_t account = report >> 32;
    const std::size_t task = report & 0xffffffffu;
    const std::uint32_t old_key = account_key_[account];
    dirty_marks_.push_back(pack(task, old_key));
    if (keys_stale_ && key_of(grouping, account) != old_key) {
      dirty_marks_.push_back(pack(task, key_of(grouping, account)));
    }
  }
  dirty_reports_.clear();
  if (keys_stale_) {
    for (std::size_t a = 0; a < observations_.size(); ++a) {
      const std::uint32_t key = key_of(grouping, a);
      if (key == account_key_[a]) continue;
      for (const Slot& slot : observations_[a]) {
        dirty_marks_.push_back(pack(slot.task, account_key_[a]));
        dirty_marks_.push_back(pack(slot.task, key));
      }
      account_key_[a] = key;
    }
    keys_stale_ = false;
  }
  // Each task's distinct dirty keys, ascending: a counting sort by task,
  // then a sort of each task's few keys.
  dirty_begin_.assign(task_count_ + 1, 0);
  for (const std::uint64_t mark : dirty_marks_) ++dirty_begin_[(mark >> 32) + 1];
  for (std::size_t j = 0; j < task_count_; ++j) {
    dirty_begin_[j + 1] += dirty_begin_[j];
  }
  dirty_keys_.resize(dirty_marks_.size());
  for (const std::uint64_t mark : dirty_marks_) {
    dirty_keys_[dirty_begin_[mark >> 32]++] = static_cast<std::uint32_t>(mark);
  }
  // dirty_begin_[j] now ends task j; compact each task's sorted, unique
  // keys towards the front and restore the starts.
  std::size_t kept = 0;
  std::size_t from = 0;
  for (std::size_t j = 0; j < task_count_; ++j) {
    const auto first = dirty_keys_.begin() + static_cast<std::ptrdiff_t>(from);
    const auto last =
        dirty_keys_.begin() + static_cast<std::ptrdiff_t>(dirty_begin_[j]);
    from = dirty_begin_[j];
    std::sort(first, last);
    dirty_begin_[j] = static_cast<std::uint32_t>(kept);
    const auto unique_end = std::unique(first, last);
    for (auto it = first; it != unique_end; ++it) dirty_keys_[kept++] = *it;
  }
  dirty_begin_[task_count_] = static_cast<std::uint32_t>(kept);

  // One merge per task of the clean cells (in key order) with the dirty
  // keys: a dirty key drops its old cell and, if it is still a group's
  // smallest member and some member reported the task, gets a fresh cell
  // aggregated over the members in ascending account order.
  const core::GroupedData& old = table_;
  core::GroupedData& next = next_table_;
  const std::size_t bound = old.cell_count() + kept;
  next.task_begin.resize(task_count_ + 1);
  next.group.resize(bound);
  next.value.resize(bound);
  next.initial_weight.resize(bound);
  next.member_count.resize(bound);
  next_cell_key_.resize(bound);
  next.group_task_count.assign(grouping.group_count(), 0);
  std::size_t c = 0;
  const auto copy_clean = [&](std::size_t from_cell, std::size_t to_cell) {
    std::copy(old.value.begin() + from_cell, old.value.begin() + to_cell,
              next.value.begin() + c);
    std::copy(old.member_count.begin() + from_cell,
              old.member_count.begin() + to_cell,
              next.member_count.begin() + c);
    std::copy(cell_key_.begin() + from_cell, cell_key_.begin() + to_cell,
              next_cell_key_.begin() + c);
    c += to_cell - from_cell;
  };
  for (std::size_t j = 0; j < task_count_; ++j) {
    next.task_begin[j] = c;
    std::size_t i = old.task_begin[j];
    const std::size_t end = old.task_begin[j + 1];
    for (std::size_t d = dirty_begin_[j]; d < dirty_begin_[j + 1]; ++d) {
      const std::uint32_t key = dirty_keys_[d];
      std::size_t clean_end = i;
      while (clean_end < end && cell_key_[clean_end] < key) ++clean_end;
      copy_clean(i, clean_end);
      i = clean_end;
      if (i < end && cell_key_[i] == key) ++i;
      const auto members = grouping.group(grouping.group_of(key));
      if (members[0] != key) continue;  // merged into a smaller key's group
      member_values_.clear();
      for (const std::size_t a : members) {
        const auto& row = observations_[a];
        const auto it = find_task(row, j);
        if (it != row.end() && it->task == j) {
          member_values_.push_back(it->value);
        }
      }
      if (member_values_.empty()) continue;
      next.value[c] = core::aggregate_group_values(member_values_, options);
      next.member_count[c] = static_cast<std::uint32_t>(member_values_.size());
      next_cell_key_[c++] = key;
    }
    copy_clean(i, end);
    // Labels shift when groups merge or split, and Eq. (4) reads the
    // task's submitter count, so every cell's label and weight are redone.
    const std::size_t row_begin = next.task_begin[j];
    std::uint32_t submitters = 0;
    for (std::size_t k = row_begin; k < c; ++k) {
      const std::size_t g = grouping.group_of(next_cell_key_[k]);
      next.group[k] = static_cast<std::uint32_t>(g);
      ++next.group_task_count[g];
      submitters += next.member_count[k];
    }
    for (std::size_t k = row_begin; k < c; ++k) {
      next.initial_weight[k] = core::initial_cell_weight(
          options.size_from_task_participants
              ? static_cast<double>(next.member_count[k])
              : static_cast<double>(grouping.group(next.group[k]).size()),
          static_cast<double>(submitters), options);
    }
  }
  next.task_begin[task_count_] = c;
  next.group.resize(c);
  next.value.resize(c);
  next.initial_weight.resize(c);
  next.member_count.resize(c);
  next_cell_key_.resize(c);
  std::swap(table_, next_table_);
  std::swap(cell_key_, next_cell_key_);

  // Only a task with a dirty cell has a different value row.
  dirty_tasks_.clear();
  for (std::size_t j = 0; j < task_count_; ++j) {
    if (dirty_begin_[j] < dirty_begin_[j + 1]) {
      dirty_tasks_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  core::framework_task_normalizers(table_, dirty_tasks_, normalizers_);
  return kept;
}

void CampaignState::rebuild_table(const core::AccountGrouping& grouping) {
  core::group_account_reports(
      task_count_, grouping,
      [&](std::size_t a) -> const std::vector<Slot>& {
        return observations_[a];
      },
      options_->framework.data_grouping, table_);
  cell_key_.resize(table_.cell_count());
  for (std::size_t c = 0; c < cell_key_.size(); ++c) {
    cell_key_[c] = static_cast<std::uint32_t>(grouping.group(table_.group[c])[0]);
  }
  for (std::size_t a = 0; a < observations_.size(); ++a) {
    account_key_[a] = key_of(grouping, a);
  }
  dirty_reports_.clear();
  keys_stale_ = false;
  normalizers_ = core::framework_task_normalizers(table_, task_count_);
}

void CampaignState::refine_and_publish(bool to_convergence) {
  obs::TraceSpan span("campaign/refine");
  span.arg("campaign", static_cast<double>(campaign_));
  const auto regroup_start = std::chrono::steady_clock::now();
  const core::AccountGrouping& current = grouping();
  const auto refine_start = std::chrono::steady_clock::now();
  std::size_t iterations = 0;
  bool converged = false;
  double final_residual = 0.0;

  if (to_convergence) {
    // The drain path *is* the batch path: the same reports, in account
    // order, through the same cell build, so a drained campaign equals
    // core::run_framework.
    rebuild_table(current);
    core::FrameworkResult result =
        core::run_framework(table_, current, options_->framework);
    truths_ = std::move(result.truths);
    group_weights_ = std::move(result.group_weights);
    iterations = result.iterations;
    converged = result.converged;
    final_residual = result.final_residual;
  } else {
    const std::size_t recomputed = patch_table(current);
    // Warm start: keep converged truths, seed newly-covered tasks with the
    // Eq. (5) initializer.
    for (std::size_t j = 0; j < task_count_; ++j) {
      if (std::isnan(truths_[j])) {
        truths_[j] = core::framework_initial_truth(
            table_, j, options_->framework.init_with_eq5);
      }
    }
    for (std::size_t k = 0; k < options_->refine_iterations; ++k) {
      ++iterations;
      const double delta = core::framework_iterate_once(
          table_, normalizers_, options_->framework.loss_epsilon, truths_,
          group_weights_);
      final_residual = delta;
      if (delta < options_->framework.convergence.truth_tolerance) {
        converged = true;
        break;
      }
    }
    auto& metrics = PipelineMetrics::get();
    metrics.cells_recomputed.inc(recomputed);
    metrics.regroup_us.record(us_between(regroup_start, refine_start));
    metrics.refine_us.record(
        us_between(refine_start, std::chrono::steady_clock::now()));
  }
  span.arg("iterations", static_cast<double>(iterations));

  {
    obs::TraceSpan publish_span("campaign/publish");
    publish_span.arg("campaign", static_cast<double>(campaign_));
    publish_span.arg("reports",
                     static_cast<double>(pending_publish_ticks_.size()));
    auto snapshot = std::make_shared<CampaignSnapshot>();
    snapshot->campaign = campaign_;
    snapshot->version = ++version_;
    snapshot->truths = truths_;
    snapshot->group_weights = group_weights_;
    snapshot->group_of = current.labels();
    snapshot->group_count = current.group_count();
    snapshot->live_observations = live_;
    snapshot->applied_reports = applied_;
    snapshot->iterations = iterations;
    snapshot->converged = converged;
    snapshot->final_residual = final_residual;
    snapshot->weight_entropy = core::group_weight_entropy(group_weights_);
    cell_->publish(std::move(snapshot));
  }
  counters_->publications.fetch_add(1, std::memory_order_relaxed);
  PipelineMetrics::get().publications.inc();
  if (!pending_publish_ticks_.empty()) {
    // This snapshot is the first that reflects every report applied since
    // the last publication: close out their ingest→publish latencies.
    const auto now = std::chrono::steady_clock::now();
    for (const std::uint64_t ticks : pending_publish_ticks_) {
      ingest_to_publish_hist_->record(ticks_to_us_since(ticks, now));
    }
    pending_publish_ticks_.clear();
  }
}

// --- Shard -----------------------------------------------------------------

Shard::Shard(std::size_t index, const ShardOptions& options,
             std::size_t queue_capacity, std::size_t max_batch)
    : index_(index),
      options_(options),
      max_batch_(max_batch),
      queue_(queue_capacity) {
  SYBILTD_CHECK(options_.decay > 0.0 && options_.decay <= 1.0,
                "decay must be in (0, 1]");
  SYBILTD_CHECK(options_.influence_floor > 0.0,
                "influence floor must be positive");
  SYBILTD_CHECK(options_.refine_iterations >= 1,
                "need at least one refinement iteration per micro-batch");
  SYBILTD_CHECK(max_batch_ >= 1, "micro-batch size must be positive");
  batch_.reserve(max_batch_);
  // Index-labeled series, so repeated engine constructions (tests,
  // benchmark sweeps) reuse the same registry entries.
  auto& metrics = PipelineMetrics::get();
  const std::string label = std::to_string(index_);
  queue_depth_gauge_ = &metrics.shard_queue_depth.at(label);
  queue_hwm_gauge_ = &metrics.shard_queue_hwm.at(label);
}

void Shard::record_push(PushResult result) {
  switch (result) {
    case PushResult::kOk:
      record_accepted(1);
      break;
    case PushResult::kRejected:
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      PipelineMetrics::get().rejected.inc();
      break;
    case PushResult::kClosed:
      break;
  }
}

void Shard::record_accepted(std::size_t n) {
  if (n == 0) return;
  counters_.accepted.fetch_add(n, std::memory_order_relaxed);
  PipelineMetrics::get().accepted.inc(n);
}

void Shard::add_campaign(std::size_t campaign, std::size_t task_count,
                         SnapshotCell* cell) {
  const bool inserted =
      states_
          .try_emplace(campaign, campaign, task_count, &options_, cell,
                       &counters_)
          .second;
  SYBILTD_CHECK(inserted, "campaign already registered with this shard");
}

void Shard::enqueue_campaign(std::size_t campaign, std::size_t task_count,
                             SnapshotCell* cell) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_campaigns_.push_back({campaign, task_count, cell});
}

void Shard::adopt_pending_campaigns() {
  std::vector<PendingCampaign> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_campaigns_.empty()) return;
    pending.swap(pending_campaigns_);
  }
  for (const PendingCampaign& p : pending) {
    add_campaign(p.campaign, p.task_count, p.cell);
  }
}

const CampaignState* Shard::campaign_state(std::size_t campaign) const {
  const auto it = states_.find(campaign);
  return it == states_.end() ? nullptr : &it->second;
}

void Shard::process_batch(const std::vector<Report>& batch) {
  const auto batch_start = std::chrono::steady_clock::now();
  auto& latency_metrics = PipelineMetrics::get();
  // Apply everything first, then evict/refine/publish once per touched
  // campaign — the micro-batch amortizes regrouping and iteration cost.
  std::vector<CampaignState*> touched;
  std::uint64_t earliest_ingest = 0;
  {
    obs::TraceSpan apply_span("shard/apply");
    apply_span.arg("shard", static_cast<double>(index_));
    apply_span.arg("reports", static_cast<double>(batch.size()));
    for (const Report& report : batch) {
      const auto it = states_.find(report.campaign);
      SYBILTD_ASSERT(it != states_.end());
      CampaignState& state = it->second;
      if (report.ingest_ticks != 0) {
        state.ingest_to_apply_hist_->record(
            ticks_to_us_since(report.ingest_ticks, batch_start));
        if (earliest_ingest == 0 || report.ingest_ticks < earliest_ingest) {
          earliest_ingest = report.ingest_ticks;
        }
      }
      state.apply(report);
      if (!state.touched_) {
        state.touched_ = true;
        touched.push_back(&state);
      }
    }
  }
  if (earliest_ingest != 0) {
    // One sample per micro-batch, for the batch's oldest report: recording
    // per report would triple the histogram traffic on the apply path for
    // a distribution the batch-level view already characterizes.
    const double wait_us = ticks_to_us_since(earliest_ingest, batch_start);
    latency_metrics.queue_wait_us.record(wait_us);
    if (obs::trace_enabled()) {
      // Retro-dated span covering the oldest report's time in the shard
      // queue: starts at its HTTP arrival, ends now.
      const std::uint64_t end_us = obs::detail::trace_now_us();
      const std::uint64_t span_us = static_cast<std::uint64_t>(
          std::max(0.0, wait_us));
      obs::detail::trace_span_end(
          "shard/queue_wait", end_us > span_us ? end_us - span_us : 0,
          "shard", static_cast<double>(index_), "reports",
          static_cast<double>(batch.size()));
    }
  }
  for (CampaignState* state : touched) {
    state->touched_ = false;
    state->evict_stale();
    state->refine_and_publish(false);
  }
  counters_.applied.fetch_add(batch.size(), std::memory_order_relaxed);
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  auto& metrics = PipelineMetrics::get();
  metrics.applied.inc(batch.size());
  metrics.batches.inc();
  metrics.batch_us.record(
      us_between(batch_start, std::chrono::steady_clock::now()));
}

void Shard::finalize_all() {
  for (auto& [campaign, state] : states_) {
    (void)campaign;
    state.refine_and_publish(true);
  }
}

std::uint64_t Shard::request_finalize() {
  return finalize_requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

bool Shard::finalized(std::uint64_t ticket) const {
  return finalize_done_.load(std::memory_order_acquire) >= ticket;
}

void Shard::wait_finalized(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(finalize_mutex_);
  finalize_cv_.wait(lock, [&] { return finalized(ticket); });
}

bool Shard::step() {
  batch_.clear();
  if (queue_.pop_batch(batch_, max_batch_, kIdlePoll) > 0) {
    // A report can only be enqueued after its campaign's pending entry was
    // handed to this shard (the engine orders both under its campaign
    // registry lock), so adopting here — after the pop, before the apply —
    // guarantees every popped report finds its campaign installed.
    adopt_pending_campaigns();
    // Spanned only when there is work — idle polls would otherwise flood
    // the trace with 2 ms no-op events.
    obs::TraceSpan span("shard/step");
    span.arg("shard", static_cast<double>(index_));
    span.arg("reports", static_cast<double>(batch_.size()));
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    queue_hwm_gauge_->set(static_cast<double>(queue_.high_watermark()));
    process_batch(batch_);
    return true;
  }
  queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  queue_hwm_gauge_->set(static_cast<double>(queue_.high_watermark()));
  // Adopt before any finalize below, so a drain covers campaigns that were
  // registered (possibly empty, awaiting their first report) before it.
  adopt_pending_campaigns();
  // Idle tick: honor a pending drain barrier, but only once the queue is
  // verifiably empty (the acquire load orders the emptiness check after
  // every push that preceded the finalize request).
  const std::uint64_t requested =
      finalize_requested_.load(std::memory_order_acquire);
  if (finalize_done_.load(std::memory_order_relaxed) < requested) {
    if (!queue_.empty()) return true;
    finalize_all();
    finalize_done_.store(requested, std::memory_order_release);
    {
      // Empty critical section: pairs with the waiter's predicate check
      // so the notify cannot be lost.
      std::lock_guard<std::mutex> lock(finalize_mutex_);
    }
    finalize_cv_.notify_all();
    return true;
  }
  if (!(queue_.closed() && queue_.empty())) return true;
  // Shutting down.  Safety net: never strand a drain that raced with close
  // (the finalize request may have landed after the idle check above).
  const std::uint64_t late =
      finalize_requested_.load(std::memory_order_acquire);
  if (finalize_done_.load(std::memory_order_relaxed) < late) {
    finalize_all();
    finalize_done_.store(late, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(finalize_mutex_);
    }
    finalize_cv_.notify_all();
  }
  return false;
}

}  // namespace sybiltd::pipeline
