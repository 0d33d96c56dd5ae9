// Tests for the streaming ingestion pipeline: the bounded MPMC report
// queue, the sharded campaign engine, and the equivalence of a drained
// engine with the one-shot batch framework.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "pipeline/engine.h"
#include "pipeline/report_queue.h"
#include "pipeline/status_json.h"
#include "parked_pool.h"

namespace sybiltd::pipeline {
namespace {

using std::chrono::milliseconds;

// --- ReportQueue -----------------------------------------------------------

// Push one report through the queue's only entrance, waiting for space.
PushResult blocking_push(ReportQueue& queue, const Report& report) {
  ReportQueue::BatchLock lock(queue);
  if (!lock.wait_for_space()) return PushResult::kClosed;
  lock.push(report);
  return PushResult::kOk;
}

TEST(ReportQueue, FifoOrderWithinCapacity) {
  ReportQueue queue(8);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(blocking_push(queue, {0, k, 0, double(k), 0.0}),
              PushResult::kOk);
  }
  EXPECT_EQ(queue.size(), 5u);
  std::vector<Report> out;
  ASSERT_EQ(queue.pop_batch(out, 16, milliseconds(0)), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(out[k].account, k);
    EXPECT_DOUBLE_EQ(out[k].value, double(k));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(ReportQueueBatchLock, InsertsRunAtomicallyAndUpdatesWatermark) {
  ReportQueue queue(8);
  {
    ReportQueue::BatchLock lock(queue);
    EXPECT_FALSE(lock.closed());
    EXPECT_EQ(lock.free(), 8u);
    for (std::size_t k = 0; k < 3; ++k) {
      lock.push({0, k, 0, double(k), 0.0});
    }
    EXPECT_EQ(lock.free(), 5u);
  }
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.high_watermark(), 3u);
  std::vector<Report> out;
  ASSERT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out[k].account, k);  // FIFO order preserved through the run
  }
}

TEST(ReportQueueBatchLock, ReportsFreeSpaceAndClosedState) {
  ReportQueue queue(2);
  EXPECT_EQ(blocking_push(queue, {}), PushResult::kOk);
  {
    ReportQueue::BatchLock lock(queue);
    EXPECT_EQ(lock.free(), 1u);
    lock.push({});
    EXPECT_EQ(lock.free(), 0u);
  }
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  ReportQueue::BatchLock lock(queue);
  EXPECT_TRUE(lock.closed());
  EXPECT_FALSE(lock.wait_for_space());  // closed: returns without waiting
}

TEST(ReportQueue, MultiProducerMultiConsumerLosesNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  ReportQueue queue(64);
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> value_sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<Report> batch;
      for (;;) {
        batch.clear();
        if (queue.pop_batch(batch, 128, milliseconds(50)) == 0) {
          if (queue.closed() && queue.empty()) return;
          continue;
        }
        for (const Report& r : batch) {
          value_sum.fetch_add(r.account, std::memory_order_relaxed);
        }
        consumed.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        const std::size_t tag = p * kPerProducer + k;
        ASSERT_EQ(blocking_push(queue, {0, tag, 0, 0.0, 0.0}),
                  PushResult::kOk);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  // Sum of all tags: every report arrived exactly once.
  EXPECT_EQ(value_sum.load(), total * (total - 1) / 2);
}

// --- Engine helpers --------------------------------------------------------

// A campaign whose accounts form clone blocks: account a performs the
// contiguous task block (a % blocks), so same-block accounts share their
// whole task set (grouped by AG-TS) and distinct blocks never connect.
std::vector<Report> block_campaign_reports(std::size_t campaign,
                                           std::size_t accounts,
                                           std::size_t tasks,
                                           std::size_t blocks, Rng& rng) {
  const std::size_t span = tasks / blocks;
  std::vector<Report> reports;
  reports.reserve(accounts * span);
  for (std::size_t a = 0; a < accounts; ++a) {
    const std::size_t base = (a % blocks) * span;
    for (std::size_t t = base; t < base + span; ++t) {
      reports.push_back({campaign, a, t, rng.uniform(-90.0, -50.0), 0.0});
    }
  }
  return reports;
}

void run_producers(CampaignEngine& engine, const std::vector<Report>& reports,
                   std::size_t producer_count) {
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < producer_count; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = p; k < reports.size(); k += producer_count) {
        ASSERT_EQ(engine.submit(reports[k]), PushResult::kOk);
      }
    });
  }
  for (auto& t : producers) t.join();
}

// --- Engine: lossless multi-producer ingest (acceptance a) -----------------

TEST(CampaignEngine, MultiProducerIngestLosesNothing) {
  constexpr std::size_t kCampaigns = 4;
  constexpr std::size_t kAccounts = 500;
  constexpr std::size_t kTasks = 200;
  constexpr std::size_t kBlocks = 4;
  constexpr std::size_t kProducers = 4;

  EngineOptions options;
  options.shard_count = 4;
  options.queue_capacity = 4096;
  options.max_batch = 512;
  CampaignEngine engine(options);
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    ASSERT_EQ(engine.add_campaign(kTasks), c);
  }
  engine.start();

  Rng rng(11);
  std::vector<Report> reports;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    auto campaign_reports =
        block_campaign_reports(c, kAccounts, kTasks, kBlocks, rng);
    reports.insert(reports.end(), campaign_reports.begin(),
                   campaign_reports.end());
  }
  ASSERT_GE(reports.size(), 100000u);
  std::shuffle(reports.begin(), reports.end(), rng);

  run_producers(engine, reports, kProducers);
  engine.drain();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, reports.size());
  EXPECT_EQ(counters.accepted, reports.size());
  EXPECT_EQ(counters.applied, reports.size());
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_GT(counters.batches, 0u);

  const std::size_t per_campaign = kAccounts * (kTasks / kBlocks);
  std::size_t live_total = 0;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    const auto snap = engine.snapshot(c);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->applied_reports, per_campaign);
    EXPECT_EQ(snap->live_observations, per_campaign);
    EXPECT_EQ(snap->group_of.size(), kAccounts);
    EXPECT_EQ(snap->group_count, kBlocks);  // clone blocks found by AG-TS
    EXPECT_TRUE(snap->converged);
    live_total += snap->live_observations;
  }
  // Zero lost, zero duplicated: every accepted report is live exactly once.
  EXPECT_EQ(live_total, reports.size());
  engine.stop();
}

// --- Engine: drained state equals the batch framework (acceptance b) -------

TEST(CampaignEngine, DrainMatchesBatchFramework) {
  constexpr std::size_t kTasks = 12;
  Rng rng(23);

  // Ground-truth-ish task values plus two Sybil clone sets and legit users
  // with small distinct task subsets.
  std::vector<double> truth(kTasks);
  for (auto& t : truth) t = rng.uniform(-90.0, -50.0);

  core::FrameworkInput input;
  input.task_count = kTasks;
  auto add_account = [&](const std::vector<std::size_t>& tasks, double base,
                         double sigma) {
    core::AccountTrace trace;
    std::vector<std::size_t> sorted = tasks;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t t : sorted) {
      const double value =
          (base == 0.0 ? truth[t] : base) + rng.normal(0.0, sigma);
      trace.reports.push_back({t, value, 0.0});
    }
    input.accounts.push_back(std::move(trace));
  };
  // Sybil set 1: 3 clones over tasks 0..7 pushing -50.
  for (int s = 0; s < 3; ++s) {
    add_account({0, 1, 2, 3, 4, 5, 6, 7}, -50.0, 0.2);
  }
  // Sybil set 2: 2 clones over tasks 4..11 pushing -55.
  for (int s = 0; s < 2; ++s) {
    add_account({4, 5, 6, 7, 8, 9, 10, 11}, -55.0, 0.2);
  }
  // 8 legit accounts, three tasks each, honest noisy values.
  for (std::size_t u = 0; u < 8; ++u) {
    add_account({u % kTasks, (u + 3) % kTasks, (u + 6) % kTasks}, 0.0, 2.0);
  }

  std::vector<Report> reports;
  for (std::size_t a = 0; a < input.accounts.size(); ++a) {
    for (const auto& r : input.accounts[a].reports) {
      reports.push_back({0, a, r.task, r.value, r.timestamp_hours});
    }
  }
  std::shuffle(reports.begin(), reports.end(), rng);

  EngineOptions options;
  options.shard_count = 2;
  options.max_batch = 16;  // many micro-batches exercise the warm refine
  CampaignEngine engine(options);
  ASSERT_EQ(engine.add_campaign(kTasks), 0u);
  engine.start();
  run_producers(engine, reports, 3);
  engine.drain();
  const auto snap = engine.snapshot(0);
  engine.stop();

  const core::FrameworkOptions framework_options;  // engine default
  const core::FrameworkResult batch = core::run_framework(
      input, core::AgTs(core::AgTsOptions{.rho = 1.0}), framework_options);

  ASSERT_EQ(snap->truths.size(), batch.truths.size());
  for (std::size_t j = 0; j < kTasks; ++j) {
    ASSERT_FALSE(std::isnan(batch.truths[j]));
    EXPECT_NEAR(snap->truths[j], batch.truths[j], 1e-9) << "task " << j;
  }
  EXPECT_TRUE(snap->converged);
  EXPECT_EQ(snap->group_of, batch.grouping.labels());
  ASSERT_EQ(snap->group_weights.size(), batch.group_weights.size());
  for (std::size_t k = 0; k < batch.group_weights.size(); ++k) {
    EXPECT_NEAR(snap->group_weights[k], batch.group_weights[k], 1e-9);
  }

  // The shard's live observations carry exactly the input's task sets: the
  // Eq. (6) affinity matrix of its framework view equals the input's.
  const CampaignState* state = engine.debug_state(0);
  ASSERT_NE(state, nullptr);
  const auto live = core::AgTs::affinity_matrix(state->as_framework_input());
  const auto reference = core::AgTs::affinity_matrix(input);
  ASSERT_EQ(live.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::size_t j = 0; j < reference.size(); ++j) {
      EXPECT_DOUBLE_EQ(live[i][j], reference[i][j])
          << "pair " << i << "," << j;
    }
  }
}

// --- CampaignState warm refine ---------------------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The warm refine groups the live observations straight from the store.
// Under churn (upserts, fresh accounts) and decay evictions it must publish
// exactly what the same warm iterations give on the batch view,
// group_data(as_framework_input(), ...).
TEST(CampaignStateRefine, FlatStoreMatchesFrameworkViewUnderChurnAndDecay) {
  ShardOptions options;
  options.rho = 0.0;
  options.decay = 0.97;
  options.influence_floor = 1e-2;  // a horizon of 152 arrivals
  const core::FrameworkOptions& fw = options.framework;
  constexpr std::size_t kTasks = 16;
  SnapshotCell cell;
  ShardCounters counters;
  CampaignState state(0, kTasks, &options, &cell, &counters);
  Rng rng(41);
  std::size_t batches_with_evictions = 0, batches_with_merges = 0;
  for (int batch = 0; batch < 80; ++batch) {
    for (int r = 0; r < 12; ++r) {
      const std::size_t account = rng.uniform_index(30);
      // Sybil-like accounts (multiples of 3) share tasks 0..5 and a value.
      const bool sybil = account % 3 == 0;
      const std::size_t task =
          sybil ? rng.uniform_index(6) : rng.uniform_index(kTasks);
      const double value = sybil ? -50.0 : rng.normal(-70.0, 3.0);
      state.apply({0, account, task, value, 0.0});
    }
    const std::uint64_t evicted_before = counters.evictions.load();
    state.evict_stale();
    if (counters.evictions.load() > evicted_before) ++batches_with_evictions;

    // Expected: the previous snapshot's warm state, iterated on the view.
    const auto before = cell.read();
    std::vector<double> truths = before->truths;
    std::vector<double> weights = before->group_weights;
    const core::GroupedData grouped = core::group_data(
        state.as_framework_input(), state.grouping(), fw.data_grouping);
    const auto norm = core::framework_task_normalizers(grouped, kTasks);
    const auto init =
        core::framework_initial_truths(grouped, kTasks, fw.init_with_eq5);
    for (std::size_t j = 0; j < kTasks; ++j) {
      if (std::isnan(truths[j])) truths[j] = init[j];
    }
    for (std::size_t k = 0; k < options.refine_iterations; ++k) {
      const double delta = core::framework_iterate_once(
          grouped, norm, fw.loss_epsilon, truths, weights);
      if (delta < fw.convergence.truth_tolerance) break;
    }

    state.refine_and_publish(false);
    const auto after = cell.read();
    ASSERT_EQ(after->version, before->version + 1);
    ASSERT_TRUE(same_bits(after->truths, truths)) << "batch " << batch;
    ASSERT_TRUE(same_bits(after->group_weights, weights)) << "batch " << batch;
    if (after->group_count < after->group_of.size()) ++batches_with_merges;
  }
  EXPECT_GT(batches_with_evictions, 0u);
  EXPECT_GT(batches_with_merges, 0u);
}

template <typename T>
bool same_array(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Names the first field where two grouped tables differ, or "".
std::string table_difference(const core::GroupedData& got,
                             const core::GroupedData& want) {
  if (!same_array(got.task_begin, want.task_begin)) return "task_begin";
  if (!same_array(got.group, want.group)) return "group";
  if (!same_array(got.value, want.value)) return "value";
  if (!same_array(got.initial_weight, want.initial_weight)) {
    return "initial_weight";
  }
  if (!same_array(got.member_count, want.member_count)) return "member_count";
  if (!same_array(got.group_task_count, want.group_task_count)) {
    return "group_task_count";
  }
  return "";
}

// The warm refine patches its grouped table instead of rebuilding it.  After
// every batch the patched table must equal group_data on the batch view of
// the same observations under the same grouping, to the bit, field by
// field.  The stream mixes new memberships, upsert-only batches, decay
// evictions (ten accounts go silent and every report of theirs decays
// out), account 1 joining Sybil group {50..54} and leaving it again,
// which renames that group's key and shifts every later group label, and
// one mid-stream drain, in both Eq. (4) size modes and under all five
// aggregates.
TEST(CampaignStateRefine, PatchedTableEqualsFromScratchGroupData) {
  constexpr std::size_t kAccounts = 200;
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kSybilStarts[] = {50, 100, 150, 190};
  // Each account's task schedule; the five members of a Sybil group share
  // one, and account 1 first takes group {50..54}'s and then ten others.
  Rng schedule_rng(7);
  std::vector<std::vector<std::size_t>> schedule(kAccounts);
  for (std::size_t a = 0; a < kAccounts; ++a) {
    for (std::size_t j = 0; j < kTasks; ++j) {
      if (schedule_rng.bernoulli(0.15)) schedule[a].push_back(j);
    }
    if (schedule[a].empty()) schedule[a].push_back(a % kTasks);
  }
  for (const std::size_t start : kSybilStarts) {
    schedule[start] = {start % kTasks, (start + 3) % kTasks,
                       (start + 7) % kTasks, (start + 11) % kTasks,
                       (start + 13) % kTasks, (start + 17) % kTasks};
    for (std::size_t m = 1; m < 5; ++m) schedule[start + m] = schedule[start];
  }
  std::vector<std::size_t> escape;
  for (std::size_t j = 0; j < kTasks && escape.size() < 10; ++j) {
    if (std::find(schedule[50].begin(), schedule[50].end(), j) ==
        schedule[50].end()) {
      escape.push_back(j);
    }
  }
  const auto silent_at = [](std::size_t a, int batch) {
    if (a == 1) return batch < 30;                 // joins at batch 30
    return a >= 180 && a < 190 && batch >= 10;     // decays out for good
  };

  const core::GroupAggregate aggregates[] = {
      core::GroupAggregate::kInverseDeviation, core::GroupAggregate::kMean,
      core::GroupAggregate::kMedian, core::GroupAggregate::kTrimmedMean,
      core::GroupAggregate::kHuber};
  for (const bool participants : {true, false}) {
    for (const core::GroupAggregate aggregate : aggregates) {
      SCOPED_TRACE(::testing::Message()
                   << "aggregate " << static_cast<int>(aggregate)
                   << " participants " << participants);
      ShardOptions options;
      options.rho = 0.0;
      options.decay = 0.995;
      options.influence_floor = 1e-2;  // a horizon of 919 arrivals
      options.framework.data_grouping.aggregate = aggregate;
      options.framework.data_grouping.size_from_task_participants =
          participants;
      SnapshotCell cell;
      ShardCounters counters;
      CampaignState state(0, kTasks, &options, &cell, &counters);
      Rng rng(43);
      bool joined = false, left = false;
      std::size_t upsert_batches = 0, emptied_accounts = 0;
      for (int batch = 0; batch < 120; ++batch) {
        const bool upserts_only = batch % 7 == 6;
        if (upserts_only) {
          // Re-submit live observations with new values; no eviction, so
          // the grouping and every membership stay as they are.
          const core::FrameworkInput view = state.as_framework_input();
          const std::uint64_t regroups = counters.regroups.load();
          for (int r = 0; r < 48; ++r) {
            const std::size_t a = rng.uniform_index(view.accounts.size());
            const auto& reports = view.accounts[a].reports;
            if (reports.empty()) continue;
            const auto& report = reports[rng.uniform_index(reports.size())];
            state.apply({0, a, report.task, rng.uniform(-90.0, -40.0), 0.0});
          }
          state.refine_and_publish(false);
          ASSERT_EQ(counters.regroups.load(), regroups);
          ++upsert_batches;
        } else {
          for (int r = 0; r < 64; ++r) {
            const std::size_t a = rng.uniform_index(kAccounts);
            if (silent_at(a, batch)) continue;
            // Sybil accounts (and account 1 while it copies group
            // {50..54}) replay their whole schedule; the others report one
            // task of theirs.
            const bool sybil = (a >= 50 && a % 50 < 5) || (a == 1 && batch < 60);
            const auto& tasks = a != 1 ? schedule[a]
                                : batch < 60 ? schedule[50]
                                             : escape;
            if (sybil) {
              for (const std::size_t t : tasks) {
                state.apply({0, a, t, -50.0 + rng.uniform(-0.5, 0.5), 0.0});
              }
            } else {
              const std::size_t t = tasks[rng.uniform_index(tasks.size())];
              state.apply({0, a, t, rng.uniform(-90.0, -40.0), 0.0});
            }
          }
          state.evict_stale();
          // One drain mid-stream: it rebuilds the table, and later warm
          // refines patch from there.
          state.refine_and_publish(/*to_convergence=*/batch == 45);
        }
        const core::AccountGrouping& grouping = state.grouping();
        const core::GroupedData want = core::group_data(
            state.as_framework_input(), grouping,
            options.framework.data_grouping);
        ASSERT_EQ(table_difference(state.grouped_table(), want), "")
            << "batch " << batch;
        if (grouping.account_count() > 50) {
          const bool together = grouping.group_of(1) == grouping.group_of(50);
          joined = joined || together;
          left = left || (joined && !together);
        }
        if (batch == 119) {
          const core::FrameworkInput view = state.as_framework_input();
          for (std::size_t a = 180; a < 190; ++a) {
            if (view.accounts[a].reports.empty()) ++emptied_accounts;
          }
        }
      }
      EXPECT_TRUE(joined);
      EXPECT_TRUE(left);
      EXPECT_GT(upsert_batches, 0u);
      EXPECT_EQ(emptied_accounts, 10u);
    }
  }
}

// pipeline.refine.cells_recomputed counts the cells a warm refine
// re-aggregates: one for one upsert, none when nothing changed.
TEST(CampaignStateRefine, CellsRecomputedCountsOnlyDirtyCells) {
  obs::Counter& recomputed = obs::MetricsRegistry::global().counter(
      "pipeline.refine.cells_recomputed");
  ShardOptions options;
  options.rho = 1e9;  // no edges: three singleton groups
  SnapshotCell cell;
  ShardCounters counters;
  CampaignState state(0, 4, &options, &cell, &counters);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t j = 0; j < 4; ++j) {
      state.apply({0, a, j, -60.0 - static_cast<double>(a + j), 0.0});
    }
  }
  std::uint64_t before = recomputed.value();
  state.refine_and_publish(false);
  EXPECT_EQ(recomputed.value() - before, 12u);
  EXPECT_EQ(state.grouped_table().cell_count(), 12u);
  before = recomputed.value();
  state.refine_and_publish(false);
  EXPECT_EQ(recomputed.value() - before, 0u);
  state.apply({0, 1, 2, -70.0, 0.0});
  before = recomputed.value();
  state.refine_and_publish(false);
  EXPECT_EQ(recomputed.value() - before, 1u);
}

// One regroup and one refine sample per touched campaign per micro-batch:
// an untouched campaign adds none.
TEST(CampaignStateRefine, RegroupAndRefineHistogramsCountTouchedCampaigns) {
  auto& registry = obs::MetricsRegistry::global();
  ShardOptions options;
  Shard shard(0, options, /*queue_capacity=*/64, /*max_batch=*/64);
  std::vector<SnapshotCell> cells(4);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    shard.add_campaign(c, 4, &cells[c]);
  }
  obs::Histogram& regroup = registry.histogram("pipeline.regroup_us");
  obs::Histogram& refine = registry.histogram("pipeline.refine_us");
  const std::uint64_t regroup_before = regroup.count();
  const std::uint64_t refine_before = refine.count();
  // Campaigns 0, 1 and 2 in one micro-batch; campaign 3 is not touched.
  for (std::size_t r = 0; r < 9; ++r) {
    ASSERT_EQ(blocking_push(shard.queue(), {r % 3, r, r % 4, -60.0, 0.0}),
              PushResult::kOk);
  }
  ASSERT_TRUE(shard.step());
  EXPECT_EQ(shard.counters().batches.load(), 1u);
  EXPECT_EQ(regroup.count(), regroup_before + 3);
  EXPECT_EQ(refine.count(), refine_before + 3);
  EXPECT_EQ(cells[3].read()->version, 0u);
}

// --- CampaignState memory -------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define SYBILTD_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SYBILTD_TEST_TSAN 1
#endif
#endif

// Resident set size in bytes from /proc/self/status, or -1 without /proc.
long long resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  return -1;
}

// State grows linearly in the largest account id: one report for account
// 200,000 on a 64-task campaign must not allocate per-pair rows (the dense
// lower-triangular counts this replaced needed about 160 GB at this id).
// Ids are still mapped densely, though — ROADMAP item 1's compact id
// mapping is open: ids from 2^32 up fail the index's 32-bit check before
// anything is allocated, but any smaller id still allocates that many rows
// (account 2^31 would need over 100 GB).
TEST(CampaignStateMemory, SparseAccountIdGrowsLinearly) {
#if defined(SYBILTD_TEST_TSAN)
  // ThreadSanitizer shadows every touched byte several times over, and
  // that shadow is resident too; the plain and ASan builds run the check.
  GTEST_SKIP() << "VmRSS includes ThreadSanitizer shadow memory";
#endif
  const long long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is not available";
  ShardOptions options;
  SnapshotCell cell;
  ShardCounters counters;
  CampaignState state(0, 64, &options, &cell, &counters);
  state.apply({0, 200000, 7, -60.0, 0.0});
  EXPECT_EQ(state.grouping().group_count(), 200001u);
  const long long grown = resident_bytes() - before;
  EXPECT_LT(grown, 64ll << 20) << "VmRSS grew by " << grown << " bytes";
  EXPECT_THROW(state.apply({0, std::size_t{1} << 40, 7, -60.0, 0.0}),
               std::invalid_argument);
  EXPECT_EQ(state.account_count(), 200001u);
}

// --- Engine: snapshots stay fresh without drain ----------------------------

TEST(CampaignEngine, SnapshotsAreFreshMidStream) {
  EngineOptions options;
  options.shard_count = 1;
  options.max_batch = 8;
  CampaignEngine engine(options);
  engine.add_campaign(4);
  engine.start();

  const auto initial = engine.snapshot(0);
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->version, 0u);
  EXPECT_TRUE(std::isnan(initial->truths[0]));

  Rng rng(5);
  std::size_t submitted = 0;
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t t = 0; t < 4; ++t) {
      engine.submit({0, a, t, -70.0 + rng.normal(0.0, 1.0), 0.0});
      ++submitted;
    }
  }
  // No drain: poll until the worker has caught up and published.
  std::shared_ptr<const CampaignSnapshot> snap;
  for (int tries = 0; tries < 1000; ++tries) {
    snap = engine.snapshot(0);
    if (snap->applied_reports == submitted) break;
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->applied_reports, submitted);
  EXPECT_GT(snap->version, 0u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_FALSE(std::isnan(snap->truths[t]));
    EXPECT_NEAR(snap->truths[t], -70.0, 3.0);
  }
  engine.stop();
}

// --- Engine: decay evicts abandoned observations ---------------------------

TEST(CampaignEngine, DecayEvictsAbandonedAccounts) {
  EngineOptions options;
  options.shard_count = 1;
  options.shard.decay = 0.9;
  options.shard.influence_floor = 1e-3;  // horizon ≈ 66 arrival steps
  CampaignEngine engine(options);
  engine.add_campaign(5);
  engine.start();
  // Ten accounts, each active for 100 consecutive arrivals then silent.
  for (std::size_t r = 0; r < 1000; ++r) {
    engine.submit({0, r / 100, r % 5, -70.0, 0.0});
  }
  engine.drain();
  const auto snap = engine.snapshot(0);
  // Only the last account's five observations are inside the horizon.
  EXPECT_EQ(snap->live_observations, 5u);
  EXPECT_EQ(snap->group_of.size(), 10u);  // accounts stay known
  EXPECT_EQ(engine.counters().evictions, 45u);  // 9 silent accounts × 5 tasks
  engine.stop();
}

// --- Engine: backpressure at a full shard queue ---------------------------

// One shard of capacity 2 on a parked pool: nothing pops, so the queue is
// full after two reports until the pool is released.
EngineOptions one_tiny_shard() {
  EngineOptions options;
  options.shard_count = 1;
  options.queue_capacity = 2;
  return options;
}

TEST(CampaignEngine, SubmitBlocksUntilQueueHasSpace) {
  ParkedPool pool;
  {
    CampaignEngine engine(one_tiny_shard());
    engine.add_campaign(3);
    engine.start();
    ASSERT_EQ(engine.submit({0, 0, 0, 1.0, 0.0}), PushResult::kOk);
    ASSERT_EQ(engine.submit({0, 1, 0, 2.0, 0.0}), PushResult::kOk);
    std::atomic<bool> returned{false};
    std::thread producer([&] {
      EXPECT_EQ(engine.submit({0, 2, 0, 3.0, 0.0}), PushResult::kOk);
      returned.store(true);
    });
    while (engine.counters().submitted < 3) std::this_thread::yield();
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(returned.load()) << "submit() returned on a full queue";
    pool.release();  // the shard pops, freeing the slot the producer needs
    producer.join();
    engine.drain();
    const EngineCounters counters = engine.counters();
    EXPECT_EQ(counters.accepted, 3u);
    EXPECT_EQ(counters.rejected, 0u);
    EXPECT_EQ(counters.applied, 3u);
    engine.stop();
  }
}

TEST(CampaignEngine, StopUnblocksWaitingSubmit) {
  ParkedPool pool;
  {
    CampaignEngine engine(one_tiny_shard());
    engine.add_campaign(3);
    engine.start();
    ASSERT_EQ(engine.submit({0, 0, 0, 1.0, 0.0}), PushResult::kOk);
    ASSERT_EQ(engine.submit({0, 1, 0, 2.0, 0.0}), PushResult::kOk);
    std::thread producer([&] {
      // Waits on the full queue until stop() closes it from underneath.
      EXPECT_EQ(engine.submit({0, 2, 0, 3.0, 0.0}), PushResult::kClosed);
    });
    while (engine.counters().submitted < 3) std::this_thread::yield();
    // stop() closes the queues first, then waits for the shard chain,
    // which needs the pool: run it beside the release.
    std::thread stopper([&] { engine.stop(); });
    producer.join();
    pool.release();
    stopper.join();
    // The two reports queued before the close are still applied.
    const EngineCounters counters = engine.counters();
    EXPECT_EQ(counters.accepted, 2u);
    EXPECT_EQ(counters.applied, 2u);
  }
}

TEST(CampaignEngine, TrySubmitRejectsWhenQueueFull) {
  ParkedPool pool;
  {
    CampaignEngine engine(one_tiny_shard());
    engine.add_campaign(3);
    engine.start();
    EXPECT_EQ(engine.try_submit({0, 0, 0, 1.0, 0.0}), SubmitStatus::kAccepted);
    EXPECT_EQ(engine.try_submit({0, 1, 0, 2.0, 0.0}), SubmitStatus::kAccepted);
    EXPECT_EQ(engine.try_submit({0, 2, 0, 3.0, 0.0}),
              SubmitStatus::kQueueFull);
    const EngineCounters counters = engine.counters();
    EXPECT_EQ(counters.rejected, 1u);
    EXPECT_EQ(counters.shards[0].queue_depth, 2u);  // the ring is untouched
    pool.release();
    engine.drain();
    EXPECT_EQ(engine.counters().applied, 2u);
    engine.stop();
  }
}

TEST(CampaignEngine, RequestDrainCompletesWithoutBlocking) {
  ParkedPool pool;
  {
    CampaignEngine engine(one_tiny_shard());
    engine.add_campaign(3);
    engine.start();
    ASSERT_EQ(engine.submit({0, 0, 0, 1.0, 0.0}), PushResult::kOk);
    const DrainTicket ticket = engine.request_drain();
    EXPECT_FALSE(engine.drained(ticket));  // the shard cannot run yet
    pool.release();
    while (!engine.drained(ticket)) std::this_thread::yield();
    const auto snapshot = engine.snapshot(0);
    EXPECT_EQ(snapshot->applied_reports, 1u);
    EXPECT_TRUE(snapshot->converged);
    engine.stop();
  }
}

// --- Engine: argument validation -------------------------------------------

TEST(CampaignEngine, ValidatesArguments) {
  {
    EngineOptions bad;
    bad.shard_count = 0;
    EXPECT_THROW(CampaignEngine{bad}, std::invalid_argument);
  }
  {
    EngineOptions bad;
    bad.shard.decay = 0.0;
    EXPECT_THROW(CampaignEngine{bad}, std::invalid_argument);
  }
  CampaignEngine engine;
  EXPECT_THROW(engine.add_campaign(0), std::invalid_argument);
  engine.add_campaign(3);
  EXPECT_THROW(engine.submit({0, 0, 0, -70.0, 0.0}),
               std::invalid_argument);  // not started
  engine.start();
  // Live registration is supported (see AddCampaignWhileRunning), but the
  // task count is still validated.
  EXPECT_THROW(engine.add_campaign(0), std::invalid_argument);
  EXPECT_THROW(engine.submit({1, 0, 0, -70.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(engine.submit({0, 0, 3, -70.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(engine.submit({0, 0, 0, std::nan(""), 0.0}),
               std::invalid_argument);
  engine.stop();
  EXPECT_THROW(engine.drain(), std::invalid_argument);
}

// --- Engine: concurrent producers + readers (the TSan stress target) -------

TEST(CampaignEngine, StressConcurrentProducersAndReaders) {
  constexpr std::size_t kCampaigns = 4;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  EngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  options.max_batch = 64;
  CampaignEngine engine(options);
  for (std::size_t c = 0; c < kCampaigns; ++c) engine.add_campaign(20);
  engine.start();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double sink = 0.0;
      std::uint64_t reads = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t c = 0; c < kCampaigns; ++c) {
          const auto snap = engine.snapshot(c);
          for (double t : snap->truths) {
            if (!std::isnan(t)) sink += t;
          }
          ++reads;
        }
      }
      EXPECT_GT(reads, 0u);
      (void)sink;
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(100 + p);
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        // Random pairs: plenty of upserts exercising last-write-wins.
        const Report report{rng.uniform_index(kCampaigns),
                            rng.uniform_index(40), rng.uniform_index(20),
                            rng.uniform(-90.0, -50.0), 0.0};
        ASSERT_EQ(engine.submit(report), PushResult::kOk);
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.drain();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.accepted, kProducers * kPerProducer);
  EXPECT_EQ(counters.applied, counters.accepted);
  std::size_t live = 0;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    live += engine.snapshot(c)->live_observations;
  }
  EXPECT_LE(live, kCampaigns * 40 * 20);  // distinct pairs only
  EXPECT_GT(live, 0u);
  engine.stop();
}

// --- Engine: live campaign registration ------------------------------------

TEST(CampaignEngine, AddCampaignWhileRunning) {
  EngineOptions options;
  options.shard_count = 2;
  options.max_batch = 8;
  CampaignEngine engine(options);
  const std::size_t first = engine.add_campaign(3);
  engine.start();

  // Submissions against a not-yet-registered id are refused, not lost.
  EXPECT_EQ(engine.try_submit({first + 1, 0, 0, 1.0, 0.0}),
            SubmitStatus::kUnknownCampaign);

  // Register on the running engine: readers immediately see the version-0
  // snapshot, and reports submitted right after registration land.
  const std::size_t second = engine.add_campaign(5);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(engine.campaign_task_count(second), 5u);
  const auto empty = engine.snapshot(second);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->version, 0u);
  EXPECT_TRUE(std::isnan(empty->truths[0]));

  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(engine.submit({second, a, a % 5, -60.0 + double(a), 0.0}),
              PushResult::kOk);
    EXPECT_EQ(engine.submit({first, a, a % 3, -70.0, 0.0}), PushResult::kOk);
  }
  engine.drain();
  const auto snap = engine.snapshot(second);
  EXPECT_EQ(snap->applied_reports, 4u);
  EXPECT_TRUE(snap->converged);
  EXPECT_EQ(engine.snapshot(first)->applied_reports, 4u);
  EXPECT_EQ(engine.campaign_count(), 2u);
  engine.stop();
}

// Hammer registration from one thread while another streams reports to the
// already-registered campaigns: every accepted report must still be applied
// exactly once and every new campaign must become immediately usable.
TEST(CampaignEngine, ConcurrentRegistrationAndIngestion) {
  EngineOptions options;
  options.shard_count = 2;
  options.max_batch = 16;
  CampaignEngine engine(options);
  engine.add_campaign(4);
  engine.start();

  std::atomic<std::size_t> registered{1};
  std::thread registrar([&] {
    for (int k = 0; k < 12; ++k) {
      engine.add_campaign(4);
      registered.fetch_add(1);
      std::this_thread::sleep_for(milliseconds(1));
    }
  });
  std::uint64_t sent = 0;
  Rng rng(11);
  for (int round = 0; round < 400; ++round) {
    const std::size_t visible = registered.load();
    const std::size_t campaign = rng.uniform_index(visible);
    EXPECT_EQ(engine.submit({campaign, rng.uniform_index(6),
                             rng.uniform_index(4), -60.0, 0.0}),
              PushResult::kOk);
    ++sent;
  }
  registrar.join();
  engine.drain();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.accepted, sent);
  EXPECT_EQ(counters.applied, sent);
  std::uint64_t applied = 0;
  for (std::size_t c = 0; c < engine.campaign_count(); ++c) {
    applied += engine.snapshot(c)->applied_reports;
  }
  EXPECT_EQ(applied, sent);
  engine.stop();
}

// --- Engine: repeated drains are supported ---------------------------------

TEST(CampaignEngine, RepeatedDrainsSeeMonotoneState) {
  EngineOptions options;
  options.shard_count = 1;
  CampaignEngine engine(options);
  engine.add_campaign(3);
  engine.start();
  Rng rng(7);
  std::uint64_t sent = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t t = 0; t < 3; ++t) {
        engine.submit({0, a, t, -60.0 + rng.normal(0.0, 1.0), 0.0});
        ++sent;
      }
    }
    engine.drain();
    const auto snap = engine.snapshot(0);
    EXPECT_EQ(snap->applied_reports, sent);
    EXPECT_TRUE(snap->converged);
  }
  engine.stop();
}

// --- try_submit_batch: equivalence with a per-report loop -------------------

// The oracle try_submit_batch must match: call try_submit per report and
// stop at the first non-kAccepted result.
SubmitBatchResult submit_loop(CampaignEngine& engine,
                              const std::vector<Report>& reports) {
  SubmitBatchResult result;
  for (const Report& report : reports) {
    const SubmitStatus status = engine.try_submit(report);
    if (status != SubmitStatus::kAccepted) {
      result.status = status;
      return result;
    }
    ++result.accepted;
  }
  return result;
}

// Run the same batch through one engine's try_submit_batch and a twin
// engine's per-report loop; prefix, status, and every counter must agree.
void expect_batch_matches_loop(const std::vector<Report>& reports) {
  EngineOptions options;
  options.shard_count = 3;
  CampaignEngine batch_engine(options);
  CampaignEngine loop_engine(options);
  for (CampaignEngine* engine : {&batch_engine, &loop_engine}) {
    for (int c = 0; c < 3; ++c) engine->add_campaign(4);
    engine->start();
  }
  const SubmitBatchResult batch = batch_engine.try_submit_batch(reports);
  const SubmitBatchResult loop = submit_loop(loop_engine, reports);
  EXPECT_EQ(batch.accepted, loop.accepted);
  EXPECT_EQ(batch.status, loop.status);
  batch_engine.drain();
  loop_engine.drain();
  const EngineCounters bc = batch_engine.counters();
  const EngineCounters lc = loop_engine.counters();
  EXPECT_EQ(bc.submitted, lc.submitted);
  EXPECT_EQ(bc.accepted, lc.accepted);
  EXPECT_EQ(bc.rejected, lc.rejected);
  EXPECT_EQ(bc.applied, lc.applied);
  EXPECT_EQ(bc.accepted, bc.applied);  // every enqueued report was applied
  batch_engine.stop();
  loop_engine.stop();
}

TEST(TrySubmitBatch, MatchesPerReportLoopAcrossValidationStops) {
  // All valid, spanning all three shards.
  expect_batch_matches_loop({{0, 0, 0, 1.0, 0.0},
                             {1, 0, 1, 2.0, 0.0},
                             {2, 0, 2, 3.0, 0.0},
                             {0, 1, 3, 4.0, 0.0}});
  // Unknown campaign mid-batch: the prefix before it is still enqueued.
  expect_batch_matches_loop(
      {{0, 0, 0, 1.0, 0.0}, {9, 0, 0, 2.0, 0.0}, {1, 0, 0, 3.0, 0.0}});
  // Invalid task on the first report: empty prefix, nothing enqueued.
  expect_batch_matches_loop({{0, 0, 99, 1.0, 0.0}, {0, 0, 0, 2.0, 0.0}});
  // NaN value mid-batch.
  expect_batch_matches_loop({{1, 0, 0, 1.0, 0.0},
                             {2, 0, 1, std::nan(""), 0.0},
                             {0, 0, 0, 3.0, 0.0}});
}

TEST(TrySubmitBatch, EmptyBatchAndNotRunning) {
  CampaignEngine engine;
  engine.add_campaign(2);
  std::vector<Report> reports{{0, 0, 0, 1.0, 0.0}};
  const SubmitBatchResult before = engine.try_submit_batch(reports);
  EXPECT_EQ(before.accepted, 0u);
  EXPECT_EQ(before.status, SubmitStatus::kNotRunning);
  engine.start();
  const SubmitBatchResult empty = engine.try_submit_batch({});
  EXPECT_EQ(empty.accepted, 0u);
  EXPECT_EQ(empty.status, SubmitStatus::kAccepted);
  engine.stop();
}

// Deterministic queue-full coverage: park the global pool, so no shard
// chain can pop while the batch lands.  Both the batch engine and the loop
// oracle hit the same frozen queues.
TEST(TrySubmitBatch, QueueFullStopsAtCleanPrefixAcrossShards) {
  ParkedPool pool;
  {
    EngineOptions options;
    options.shard_count = 2;
    options.queue_capacity = 2;
    CampaignEngine batch_engine(options);
    CampaignEngine loop_engine(options);
    for (CampaignEngine* engine : {&batch_engine, &loop_engine}) {
      for (int c = 0; c < 2; ++c) engine->add_campaign(2);
      engine->start();
    }

    // Campaigns 0/1 land on shards 0/1; each shard holds 2.  The batch
    // interleaves shards so the stop lands mid-batch on shard 0: reports
    // 0,2 fill shard 0, report 1 goes to shard 1, report 4 (shard 0 again)
    // finds no budget — accepted prefix is exactly 4.
    const std::vector<Report> reports{{0, 0, 0, 1.0, 0.0},
                                      {1, 0, 0, 2.0, 0.0},
                                      {0, 1, 1, 3.0, 0.0},
                                      {1, 1, 1, 4.0, 0.0},
                                      {0, 2, 0, 5.0, 0.0},
                                      {1, 2, 0, 6.0, 0.0}};
    const SubmitBatchResult batch = batch_engine.try_submit_batch(reports);
    const SubmitBatchResult loop = submit_loop(loop_engine, reports);
    EXPECT_EQ(batch.accepted, 4u);
    EXPECT_EQ(batch.status, SubmitStatus::kQueueFull);
    EXPECT_EQ(batch.accepted, loop.accepted);
    EXPECT_EQ(batch.status, loop.status);
    const EngineCounters bc = batch_engine.counters();
    const EngineCounters lc = loop_engine.counters();
    // 4 accepted plus the one report that reached the queue and was turned
    // away; the rejection is charged to the stopping report's shard.
    EXPECT_EQ(bc.submitted, 5u);
    EXPECT_EQ(bc.submitted, lc.submitted);
    EXPECT_EQ(bc.rejected, 1u);
    EXPECT_EQ(bc.rejected, lc.rejected);
    EXPECT_EQ(bc.shards[0].rejected, 1u);

    pool.release();
    batch_engine.drain();
    loop_engine.drain();
    EXPECT_EQ(batch_engine.counters().applied, 4u);
    EXPECT_EQ(loop_engine.counters().applied, 4u);
    batch_engine.stop();
    loop_engine.stop();
  }
}


// --- Snapshot rendering: golden bytes ---------------------------------------

// One snapshot whose doubles cover the %.17g corner cases: a value with no
// short exact form, negative zero, small and large exponents, the integer
// just above 2^53 precision, the extremes and a NaN truth (rendered null).
CampaignSnapshot golden_snapshot() {
  CampaignSnapshot snapshot;
  snapshot.campaign = 3;
  snapshot.version = 17;
  snapshot.truths = {0.1,
                     -0.0,
                     1e-7,
                     1e21,
                     123456789012345680.0,
                     DBL_MAX,
                     std::numeric_limits<double>::denorm_min(),
                     std::numeric_limits<double>::quiet_NaN(),
                     -72.5,
                     1.0 / 3.0};
  snapshot.group_weights = {2.0, 1e-300, -1.5e300};
  snapshot.group_of = {0, 1, 2, 0, 1};
  snapshot.group_count = 3;
  snapshot.live_observations = 12;
  snapshot.applied_reports = 40;
  snapshot.iterations = 6;
  snapshot.converged = true;
  snapshot.final_residual = 4.9406564584124654e-324;
  snapshot.weight_entropy = 1.0986122886681098;
  return snapshot;
}

TEST(SnapshotRender, TruthsViewGoldenBytes) {
  std::string out = "prefix:";
  to_json_into(golden_snapshot(), out);
  EXPECT_EQ(out,
            "prefix:{\"campaign\": 3, \"version\": 17, \"truths\": "
            "[0.10000000000000001, -0, 9.9999999999999995e-08, 1e+21, "
            "1.2345678901234568e+17, 1.7976931348623157e+308, "
            "4.9406564584124654e-324, null, -72.5, 0.33333333333333331], "
            "\"group_weights\": [2, 1e-300, -1.5000000000000001e+300], "
            "\"group_of\": [0, 1, 2, 0, 1], \"group_count\": 3, "
            "\"live_observations\": 12, \"applied_reports\": 40, "
            "\"iterations\": 6, \"converged\": true, "
            "\"final_residual\": 4.9406564584124654e-324, "
            "\"weight_entropy\": 1.0986122886681098}");
  EXPECT_EQ(to_json(golden_snapshot()), out.substr(7));
}

TEST(SnapshotRender, GroupsViewGoldenBytes) {
  std::string out;
  groups_json_into(golden_snapshot(), out);
  EXPECT_EQ(out,
            "{\"campaign\": 3, \"version\": 17, \"group_count\": 3, "
            "\"group_of\": [0, 1, 2, 0, 1], "
            "\"group_weights\": [2, 1e-300, -1.5000000000000001e+300]}");
}

}  // namespace
}  // namespace sybiltd::pipeline
