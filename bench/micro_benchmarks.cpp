// Google-benchmark microbenchmarks of the computational substrates: FFT,
// feature extraction, DTW, k-means, elbow, truth discovery, the grouping
// methods and the full framework.
//
// `--json` is shorthand for google-benchmark's `--benchmark_format=json`;
// the CI perf-smoke job captures that output and diffs it against the
// committed BENCH_baseline.json with bench/compare_bench.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "candidate/blocking.h"
#include "candidate/features.h"
#include "candidate/setjoin.h"
#include "candidate/task_set_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "dtw/dtw.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "grouping_scenario.h"
#include "ml/elbow.h"
#include "ml/kmeans.h"
#include "ml/pca.h"
#include "obs/metrics.h"
#include "pipeline/engine.h"
#include "pipeline/shard.h"
#include "pipeline/status_json.h"
#include "sensing/fingerprint.h"
#include "server/report_decode.h"
#include "server/snapshot_cache.h"
#include "signal/features.h"
#include "signal/fft.h"
#include "signal/welch.h"
#include "simd/simd.h"
#include "truth/crh.h"

// Replacement global operator new/delete forwarding to malloc/free with an
// opt-in counter (same idiom as tests/workspace_test.cpp): the decode
// benchmarks report heap allocations per iteration as `allocs_per_op`, and
// the CI perf-smoke job asserts it is exactly 0 for BM_ReportDecodeFast —
// the zero-copy claim is measured, not asserted in prose.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sybiltd;

namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-1, 1);
  return out;
}

// Delta of a registry counter across the timed loop, attached to the
// benchmark as a per-iteration rate: proves zero-alloc / cache-hit claims
// directly in the `--json` report instead of a separate test binary.
// compare_bench.py only reads the timing metric, so the extra counters
// never affect the perf gate.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::global().counter(name)),
        start_(counter_.value()) {}
  double delta() const {
    return static_cast<double>(counter_.value() - start_);
  }

 private:
  obs::Counter& counter_;
  std::uint64_t start_;
};

// The active SIMD dispatch level (0=scalar 1=sse2 2=neon 3=avx2) as a
// user counter, so the `--json` report records which kernel backend the
// numbers were measured with.  The CI perf-smoke job asserts this is > 0
// on its x86-64 runner (i.e. the vector path was actually selected).
void attach_simd_level(benchmark::State& state) {
  state.counters["simd_level"] =
      static_cast<double>(static_cast<int>(simd::active_level()));
}

void attach_alloc_count(benchmark::State& state, std::uint64_t allocs) {
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs),
                         benchmark::Counter::kAvgIterations);
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::fft_real(x));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FftPowerOfTwo)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  // Prime-ish lengths force the chirp-z path.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::fft_real(x));
  }
}
BENCHMARK(BM_FftBluestein)->Arg(601)->Arg(1201)->Arg(4801);

void BM_WelchPsd(benchmark::State& state) {
  // welch_psd_into with reused output storage: zero heap allocations per
  // call once the WelchPlan and workspace buffers are warm.  The registry
  // deltas back that up in the JSON report: ws_heap_allocs/iter ~ 0 and
  // plan_misses/iter ~ 0 once warm, while plan_hits tracks iterations.
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 13);
  signal::PowerSpectralDensity out;
  signal::welch_psd_into(x, 100.0, {}, out);  // warm plan + workspace
  CounterDelta heap_allocs("workspace.heap_allocations");
  CounterDelta plan_hits("welch.plan_hits");
  CounterDelta plan_misses("welch.plan_misses");
  for (auto _ : state) {
    signal::welch_psd_into(x, 100.0, {}, out);
    benchmark::DoNotOptimize(out.psd.data());
  }
  state.counters["ws_heap_allocs"] =
      benchmark::Counter(heap_allocs.delta(), benchmark::Counter::kAvgIterations);
  state.counters["plan_hits"] =
      benchmark::Counter(plan_hits.delta(), benchmark::Counter::kAvgIterations);
  state.counters["plan_misses"] =
      benchmark::Counter(plan_misses.delta(), benchmark::Counter::kAvgIterations);
  attach_simd_level(state);
}
BENCHMARK(BM_WelchPsd)->Arg(600)->Arg(6000);

void BM_StreamFeatures(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::extract_stream_features(x));
  }
}
BENCHMARK(BM_StreamFeatures)->Arg(600)->Arg(6000);

void BM_FingerprintCapture(benchmark::State& state) {
  sensing::Device device(sensing::find_model("iPhone 6S"), 9);
  Rng rng(4);
  for (auto _ : state) {
    Rng r = rng.split();
    benchmark::DoNotOptimize(sensing::capture_fingerprint(device, {}, r));
  }
}
BENCHMARK(BM_FingerprintCapture);

void BM_DtwWavefront(benchmark::State& state) {
  // The cost-only DP: at vector levels this runs the diagonal-wavefront
  // recurrence through the dtw_wave_cost kernel, at scalar the serial
  // rolling rows — the same number the AG-TR kTotalCost mode consumes.
  const auto a = random_series(512, 23);
  const auto b = random_series(512, 24);
  benchmark::DoNotOptimize(dtw::dtw_total_cost(a, b));  // warm workspace
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_total_cost(a, b));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_DtwWavefront);

void BM_KMeans(benchmark::State& state) {
  Rng rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Matrix data(n, 20);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  ml::KMeansOptions opt;
  opt.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(data, 8, opt));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_KMeans)->Arg(50)->Arg(200)->Arg(800);

void BM_KmeansAssign(benchmark::State& state) {
  // The assignment scan in isolation: 800 points x 8 centroids in 20
  // dimensions, each distance one squared_distance kernel call — the inner
  // loop Lloyd iterations and k-means++ seeding spend their time in.
  Rng rng(14);
  Matrix data(800, 20);
  for (std::size_t r = 0; r < 800; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  Matrix centroids(8, 20);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 20; ++c) centroids(r, c) = rng.normal();
  }
  std::vector<std::size_t> labels(800, 0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < 800; ++i) {
      double best = ml::squared_distance(data.row(i), centroids.row(0));
      std::size_t arg = 0;
      for (std::size_t j = 1; j < 8; ++j) {
        const double d = ml::squared_distance(data.row(i), centroids.row(j));
        if (d < best) {
          best = d;
          arg = j;
        }
      }
      labels[i] = arg;
    }
    benchmark::DoNotOptimize(labels.data());
  }
  attach_simd_level(state);
}
BENCHMARK(BM_KmeansAssign);

void BM_ElbowScan(benchmark::State& state) {
  Rng rng(10);
  Matrix data(40, 20);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::elbow_select_k(data, {}));
  }
}
BENCHMARK(BM_ElbowScan);

void BM_Pca(benchmark::State& state) {
  Rng rng(11);
  Matrix data(60, 80);
  for (std::size_t r = 0; r < 60; ++r) {
    for (std::size_t c = 0; c < 80; ++c) data(r, c) = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::fit_pca(data, 2));
  }
}
BENCHMARK(BM_Pca);

const mcs::ScenarioData& shared_scenario() {
  static const mcs::ScenarioData data =
      mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.5, 1234));
  return data;
}

void BM_ScenarioGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.5, seed++)));
  }
}
BENCHMARK(BM_ScenarioGeneration);

void BM_Crh(benchmark::State& state) {
  const auto table = eval::to_observation_table(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(truth::Crh().run(table));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_Crh);

void BM_CrhIterate(benchmark::State& state) {
  // One framework CRH sweep (weight + truth estimation) over a dense
  // synthetic workload: 512 tasks x 64 groups, every group reporting every
  // task.  Exercises residual_sq, weighted_sum_gather, safe_divide and
  // max_abs_diff with no grouping or convergence logic in the timer.
  constexpr std::size_t kTasks = 512;
  constexpr std::size_t kAccounts = 64;
  Rng rng(15);
  core::FrameworkInput input;
  input.task_count = kTasks;
  input.accounts.resize(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) {
    input.accounts[i].reports.reserve(kTasks);
    for (std::size_t j = 0; j < kTasks; ++j) {
      input.accounts[i].reports.push_back(
          {j, rng.uniform(-1, 1), static_cast<double>(j)});
    }
  }
  const auto grouping = core::AccountGrouping::singletons(kAccounts);
  const core::GroupedData grouped = core::group_data(input, grouping, {});
  const auto norm = core::framework_task_normalizers(grouped, kTasks);
  const auto initial = core::framework_initial_truths(grouped, kTasks, true);
  std::vector<double> truths;
  std::vector<double> group_weights(kAccounts, 1.0);
  for (auto _ : state) {
    // Reset the truths each iteration so every sweep does the same work.
    truths = initial;
    benchmark::DoNotOptimize(core::framework_iterate_once(
        grouped, norm, 1e-9, truths, group_weights));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_CrhIterate);

// Eqs. (3)-(4) alone.  Arg 2000: the campaign_stream shape — 2,000
// accounts over 64 tasks, about seven tasks each, 10% of them Sybil
// accounts in groups of five sharing one schedule.  Arg 10000: 10^4
// singleton accounts at the same density.  Each call writes into one
// reused table, the form the streaming shard calls.
// `allocs_per_op` is the heap allocations per call once the workspace pool
// and the table are warm; the CI perf-smoke job holds it at 0.
void BM_GroupData(benchmark::State& state) {
  constexpr std::size_t kTasks = 64;
  constexpr double kDensity = 0.11;
  const auto accounts = static_cast<std::size_t>(state.range(0));
  const bool sybil_groups = accounts == 2000;
  Rng rng(16);
  core::FrameworkInput input;
  input.task_count = kTasks;
  input.accounts.resize(accounts);
  std::vector<std::size_t> labels(accounts);
  const std::size_t sybils = sybil_groups ? accounts / 10 : 0;
  for (std::size_t i = 0; i < accounts; ++i) {
    auto& reports = input.accounts[i].reports;
    if (i < sybils && i % 5 != 0) {
      reports = input.accounts[i - i % 5].reports;  // replay the schedule
      for (auto& r : reports) r.value = -50.0 + rng.uniform(-0.5, 0.5);
    } else {
      for (std::size_t j = 0; j < kTasks; ++j) {
        if (rng.bernoulli(kDensity)) {
          reports.push_back({j, rng.uniform(-90, -50), static_cast<double>(j)});
        }
      }
    }
    labels[i] = i < sybils ? i / 5 : sybils / 5 + (i - sybils);
  }
  const auto grouping = core::AccountGrouping::from_labels(labels);
  std::vector<core::GroupingReport> flat;
  for (std::size_t i = 0; i < accounts; ++i) {
    for (const auto& r : input.accounts[i].reports) {
      flat.push_back({static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(r.task), r.value});
    }
  }
  core::GroupedData grouped;
  core::group_data(kTasks, flat, grouping, {}, grouped);  // warm pool, table
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    core::group_data(kTasks, flat, grouping, {}, grouped);
    benchmark::DoNotOptimize(grouped.value.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
}
BENCHMARK(BM_GroupData)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

// A streaming campaign on the campaign_stream shape: 2,000 accounts over
// 64 tasks with schedules of 4-12 tasks, 10% of them Sybil accounts in
// groups of five replaying one schedule, rho = 0, and a decay horizon of
// 0.9 of a round, so each 256-report batch adds about 256 memberships and
// evicts about 256.  The constructor runs one untimed round of batches,
// each applied, evicted, regrouped and refined.
class StreamCampaign {
 public:
  static constexpr std::size_t kTasks = 64;
  static constexpr std::size_t kBatch = 256;

  explicit StreamCampaign(std::size_t accounts)
      : accounts_(accounts), sybils_(accounts / 10), rng_(21) {
    std::vector<std::size_t> tasks;
    for (std::size_t a = 0; a < accounts; ++a) {
      const bool clone =
          a >= accounts - sybils_ && (a - (accounts - sybils_)) % 5 != 0;
      if (!clone) {
        tasks.clear();
        const std::size_t len = 4 + rng_.uniform_index(9);
        while (tasks.size() < len) {
          const std::size_t t = rng_.uniform_index(kTasks);
          if (std::find(tasks.begin(), tasks.end(), t) == tasks.end()) {
            tasks.push_back(t);
          }
        }
      }
      double hours = rng_.uniform(0.0, 2.0);
      for (const std::size_t t : tasks) {
        round_.push_back({hours, a, t});
        hours += rng_.uniform(0.05, 0.3);
      }
    }
    std::sort(round_.begin(), round_.end(),
              [](const Arrival& x, const Arrival& y) { return x.hours < y.hours; });
    options_.rho = 0.0;
    options_.decay = std::exp(std::log(options_.influence_floor) /
                              (0.9 * static_cast<double>(round_.size())));
    state_ = std::make_unique<pipeline::CampaignState>(0, kTasks, &options_,
                                                       &cell_, &counters_);
    while (next_ < round_.size()) {
      apply_and_evict();
      benchmark::DoNotOptimize(state_->grouping().group_count());
      state_->refine_and_publish(false);
    }
  }

  pipeline::CampaignState& state() { return *state_; }

  // Apply the next batch of the round, then evict what decayed out.
  void apply_and_evict() {
    for (std::size_t r = 0; r < kBatch; ++r, ++next_) {
      const Arrival& arrival = round_[next_ % round_.size()];
      const bool sybil = arrival.account >= accounts_ - sybils_;
      const double value = sybil ? -50.0 + rng_.uniform(-0.5, 0.5)
                                 : -60.0 + rng_.uniform(-4.0, 4.0);
      state_->apply({0, arrival.account, arrival.task, value, 0.0});
    }
    state_->evict_stale();
  }

 private:
  // (timestamp, account, task) of one round, in timestamp order.
  struct Arrival {
    double hours;
    std::size_t account;
    std::size_t task;
  };

  std::size_t accounts_;
  std::size_t sybils_;
  Rng rng_;
  std::vector<Arrival> round_;
  std::size_t next_ = 0;
  pipeline::ShardOptions options_;
  pipeline::SnapshotCell cell_;
  pipeline::ShardCounters counters_;
  std::unique_ptr<pipeline::CampaignState> state_;
};

// One warm refine of a StreamCampaign.  Per iteration one batch is
// applied, evicted and regrouped outside the timer; the timer covers
// refine_and_publish(false) (the grouped-table update, normalizers, two
// warm CRH iterations and the snapshot publish).  `allocs_per_op` counts
// the heap allocations inside the timer.
void BM_WarmRefine(benchmark::State& state) {
  StreamCampaign stream(static_cast<std::size_t>(state.range(0)));
  pipeline::CampaignState& campaign = stream.state();
  g_alloc_count.store(0, std::memory_order_relaxed);
  for (auto _ : state) {
    state.PauseTiming();
    stream.apply_and_evict();
    benchmark::DoNotOptimize(campaign.grouping().group_count());
    g_alloc_tracking.store(true, std::memory_order_relaxed);
    state.ResumeTiming();
    campaign.refine_and_publish(false);
    state.PauseTiming();
    g_alloc_tracking.store(false, std::memory_order_relaxed);
    state.ResumeTiming();
  }
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  state.counters["live"] = static_cast<double>(campaign.live_observations());
}
BENCHMARK(BM_WarmRefine)->Arg(2000)->Unit(benchmark::kMicrosecond);

// One streaming regroup of a StreamCampaign: per iteration one batch is
// applied and evicted outside the timer, the timer covers
// CampaignState::grouping() (the dirty accounts' TaskSetIndex::neighbors
// probes, the incremental components and the label build), and the refine
// runs untimed.  `entries` is the posting entries the regroup handed to
// the verify kernel per call, read from pipeline.regroup.entries_verified.
void BM_StreamingRegroup(benchmark::State& state) {
  StreamCampaign stream(static_cast<std::size_t>(state.range(0)));
  pipeline::CampaignState& campaign = stream.state();
  const obs::Counter& verified =
      obs::MetricsRegistry::global().counter("pipeline.regroup.entries_verified");
  const std::uint64_t verified_before = verified.value();
  for (auto _ : state) {
    state.PauseTiming();
    stream.apply_and_evict();
    state.ResumeTiming();
    benchmark::DoNotOptimize(campaign.grouping().group_count());
    state.PauseTiming();
    campaign.refine_and_publish(false);
    state.ResumeTiming();
  }
  state.counters["entries"] = benchmark::Counter(
      static_cast<double>(verified.value() - verified_before),
      benchmark::Counter::kAvgIterations);
  attach_simd_level(state);
}
BENCHMARK(BM_StreamingRegroup)->Arg(2000)->Unit(benchmark::kMicrosecond);

// AccountGrouping::from_labels, the build every regroup and every batch
// grouping method ends with.  The campaign_stream shape: 10% of the
// accounts are Sybil accounts in groups of five, the rest singletons
// (1,840 groups at 2,000 accounts, 9,200 at 10^4), labelled in
// first-occurrence order as UnionFind::labels() returns them.
// `allocs_per_op` is constant in the group count.
void BM_GroupingFromLabels(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  const std::size_t sybils = accounts / 10;
  std::vector<std::size_t> labels(accounts);
  for (std::size_t i = 0; i < accounts; ++i) {
    labels[i] = i < sybils ? i / 5 : sybils / 5 + (i - sybils);
  }
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    const auto grouping = core::AccountGrouping::from_labels(labels);
    benchmark::DoNotOptimize(grouping.group_count());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
}
BENCHMARK(BM_GroupingFromLabels)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_AgFp(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgFp().group(input));
  }
}
BENCHMARK(BM_AgFp);

void BM_AgTs(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTs().group(input));
  }
}
BENCHMARK(BM_AgTs);

// The AG-TS set join (Eq. 6) as AgTs::group pays for it on a Sybil-shaped
// campaign: 10^4 accounts over 64 tasks, 10% of them Sybil accounts in
// groups of five replaying one schedule (bench/grouping_scenario.h),
// rho = 0.  Each call builds the flat task sets from the FrameworkInput,
// then joins them.  Per call, `entries` counts the posting entries the
// verify kernel tested and `lists` the pair posting lists the probes
// scanned.
void BM_SetJoin(benchmark::State& state) {
  const auto scenario = bench::make_grouping_input(
      static_cast<std::size_t>(state.range(0)), 16);
  const std::size_t m = scenario.input.task_count;
  const auto is_edge = [m](std::size_t both, std::size_t alone) {
    return core::AgTs::affinity(both, alone, m) > 0.0;
  };
  candidate::SetJoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(candidate::sparse_affinity_edges(
        core::AgTs::task_sets(scenario.input), is_edge, &stats));
  }
  state.counters["entries"] = static_cast<double>(stats.candidates);
  state.counters["lists"] = static_cast<double>(stats.lists);
  attach_simd_level(state);
}
BENCHMARK(BM_SetJoin)->Arg(10000)->Unit(benchmark::kMillisecond);

// One streaming regroup probe: TaskSetIndex::neighbors at rho = 0 for one
// account of a 2,000-account, 64-task campaign of the same shape (the
// campaign_stream size), cycling through the accounts.
void BM_TaskSetIndexNeighbors(benchmark::State& state) {
  const auto scenario = bench::make_grouping_input(
      static_cast<std::size_t>(state.range(0)), 16);
  const auto& input = scenario.input;
  const std::size_t n = input.accounts.size();
  candidate::TaskSetIndex index(input.task_count);
  index.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (const auto& report : input.accounts[a].reports) {
      if (!index.contains(a, report.task)) index.insert(a, report.task);
    }
  }
  std::vector<std::uint32_t> out;
  std::size_t a = 0;
  for (auto _ : state) {
    index.neighbors(a, 0.0, out);
    benchmark::DoNotOptimize(out.data());
    a = a + 1 == n ? 0 : a + 1;
  }
  attach_simd_level(state);
}
BENCHMARK(BM_TaskSetIndexNeighbors)->Arg(2000);

// AG-TR blocking (Eq. 8's endpoint grid) alone on the same Sybil-shaped
// campaign shape (bench/grouping_scenario.h), phi = 1: sort the accounts
// into the cell table, walk each cell's 3^4 box and emit the pairs whose
// endpoint bound is below phi.  `allocs_per_op` is the heap allocations
// per call once the workspace pool is warm; the CI perf-smoke job holds it
// under a constant that does not depend on size (one vector per occupied
// cell would be thousands).
void BM_EndpointGrid(benchmark::State& state) {
  const auto scenario = bench::make_grouping_input(
      static_cast<std::size_t>(state.range(0)), 16);
  const auto fps = candidate::fingerprints_of(
      core::AgTr::series_table(scenario.input));
  candidate::BlockingStats stats;
  benchmark::DoNotOptimize(
      candidate::endpoint_grid_candidates(fps, 1.0, &stats));  // warm pool
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    const auto pairs = candidate::endpoint_grid_candidates(fps, 1.0, &stats);
    benchmark::DoNotOptimize(pairs.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  state.counters["box_pairs"] = static_cast<double>(stats.box_pairs);
  state.counters["emitted"] = static_cast<double>(stats.candidates);
}
BENCHMARK(BM_EndpointGrid)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_AgTr(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTr().group(input));
  }
}
BENCHMARK(BM_AgTr);

void BM_FrameworkEndToEnd(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  const core::AgTr grouper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_framework(input, grouper));
  }
}
BENCHMARK(BM_FrameworkEndToEnd);

// --- Thread-pool scaling of the pairwise kernels ---------------------------
// Arg(0) is the pool size; 1 takes the serial fallback.  A larger
// behavioral-only scenario so the quadratic stage dominates the timer.
// bench/parallel_scaling reports the same sweep as a speedup table plus a
// determinism check.

const mcs::ScenarioData& large_scenario() {
  static const mcs::ScenarioData data = mcs::generate_scenario(
      mcs::make_large_scenario(150, 10, 5, 40, 1234));
  return data;
}

// Restores the SYBILTD_THREADS-configured pool when the sweep item ends,
// so the non-parallel benchmarks above are unaffected by ordering.
struct PoolSizeGuard {
  explicit PoolSizeGuard(std::size_t threads) {
    ThreadPool::set_global_concurrency(threads);
  }
  ~PoolSizeGuard() {
    ThreadPool::set_global_concurrency(
        ThreadPool::configured_concurrency());
  }
};

void BM_AgTrThreads(benchmark::State& state) {
  const auto input = eval::to_framework_input(large_scenario());
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  const core::AgTr grouper;
  core::AgTrStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grouper.group_with_stats(input, &stats));
  }
  state.counters["prune_rate"] =
      stats.pairs > 0 ? static_cast<double>(stats.blocked + stats.lb_pruned +
                                            stats.task_abandoned) /
                            static_cast<double>(stats.pairs)
                      : 0.0;
}
BENCHMARK(BM_AgTrThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AgTsThreads(benchmark::State& state) {
  const auto input = eval::to_framework_input(large_scenario());
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTs().group(input));
  }
}
BENCHMARK(BM_AgTsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_KMeansThreads(benchmark::State& state) {
  Rng rng(12);
  Matrix data(800, 20);
  for (std::size_t r = 0; r < 800; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  ml::KMeansOptions opt;
  opt.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(data, 8, opt));
  }
}
BENCHMARK(BM_KMeansThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Contended ingestion hot path: N benchmark threads hammering one started
// engine, the way N event loops do in the multi-loop server.  BM_TrySubmit
// measures the per-report path (wait-free routing + one queue lock per
// report); BM_TrySubmitBatch measures the batched path (one validation
// snapshot + one queue lock per shard per 64-report batch).  Rejected
// pushes (a full shard queue under the 1-consumer-per-shard drain rate)
// still traverse the full path, so items/s stays an honest submit rate.
constexpr std::size_t kSubmitTasks = 64;

pipeline::CampaignEngine* g_submit_engine = nullptr;

void submit_bench_setup(benchmark::State& state) {
  if (state.thread_index() == 0) {
    pipeline::EngineOptions options;
    options.shard_count = 4;
    options.queue_capacity = 1 << 15;
    g_submit_engine = new pipeline::CampaignEngine(options);
    g_submit_engine->add_campaign(kSubmitTasks);
    g_submit_engine->start();
  }
}

void submit_bench_teardown(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_submit_engine->drain();
    g_submit_engine->stop();
    delete g_submit_engine;
    g_submit_engine = nullptr;
  }
}

void BM_TrySubmit(benchmark::State& state) {
  submit_bench_setup(state);
  pipeline::Report report;
  report.account = static_cast<std::size_t>(state.thread_index());
  std::size_t task = 0;
  for (auto _ : state) {
    report.task = task;
    report.value = static_cast<double>(task);
    task = (task + 1) % kSubmitTasks;
    benchmark::DoNotOptimize(g_submit_engine->try_submit(report));
  }
  state.SetItemsProcessed(state.iterations());
  submit_bench_teardown(state);
}
BENCHMARK(BM_TrySubmit)->ThreadRange(1, 8)->UseRealTime();

void BM_TrySubmitBatch(benchmark::State& state) {
  submit_bench_setup(state);
  constexpr std::size_t kBatch = 64;
  std::vector<pipeline::Report> batch(kBatch);
  for (std::size_t k = 0; k < kBatch; ++k) {
    batch[k].account = static_cast<std::size_t>(state.thread_index());
    batch[k].task = k % kSubmitTasks;
    batch[k].value = static_cast<double>(k);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_submit_engine->try_submit_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
  submit_bench_teardown(state);
}
BENCHMARK(BM_TrySubmitBatch)->ThreadRange(1, 8)->UseRealTime();

// --- Ingest decode & snapshot rendering ------------------------------------
// The two halves of the zero-copy fast path (docs/PERFORMANCE.md "Ingest
// decode").  Registered arg-less so the CI perf-smoke filter matches the
// plain names.

// A canonical 100-report bare-array batch, the wire shape bench/server_load
// sends.  Varied digits so number parsing isn't unrealistically uniform.
std::string decode_bench_body() {
  std::string body = "[";
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    if (i > 0) body += ',';
    body += "{\"account\":" + std::to_string(i) +
            ",\"task\":" + std::to_string(i % kSubmitTasks) +
            ",\"value\":" + std::to_string(rng.uniform(-100, 100)) +
            ",\"timestamp_hours\":" + std::to_string(i / 24) + "}";
  }
  body += "]";
  return body;
}


void BM_ReportDecodeFast(benchmark::State& state) {
  const std::string body = decode_bench_body();
  {
    // Warm the thread's workspace pool; the timed loop must not heap-allocate.
    const server::DecodedReports warm = server::decode_reports(body, 0, kSubmitTasks);
    if (!warm.ok || !warm.fast_path) {
      state.SkipWithError("fast path did not engage on the canonical body");
      return;
    }
  }
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    const server::DecodedReports decoded =
        server::decode_reports(body, 0, kSubmitTasks);
    benchmark::DoNotOptimize(decoded.reports.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  attach_simd_level(state);
}
BENCHMARK(BM_ReportDecodeFast);

void BM_ReportDecodeGeneric(benchmark::State& state) {
  // The same body through the JsonValue-tree codec the fallback uses: the
  // gap between this and BM_ReportDecodeFast is what the fast path buys.
  const std::string body = decode_bench_body();
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    server::DecodedReports decoded;
    server::decode_reports_generic(body, 0, kSubmitTasks, &decoded);
    benchmark::DoNotOptimize(decoded.reports.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  attach_simd_level(state);
}
BENCHMARK(BM_ReportDecodeGeneric);

void BM_SnapshotRenderCached(benchmark::State& state) {
  // Repeat GETs of one snapshot version: after the first miss every get()
  // is a hash lookup + shared_ptr copy.  cache_hits/iter ~ 1 in the JSON
  // report proves the render really happened once.
  auto snapshot = std::make_shared<pipeline::CampaignSnapshot>();
  snapshot->campaign = 0;
  snapshot->version = 1;
  snapshot->truths.resize(256);
  snapshot->group_of.resize(512);
  snapshot->group_weights.resize(32, 1.0);
  snapshot->group_count = 32;
  Rng rng(32);
  for (auto& t : snapshot->truths) t = rng.uniform(-100, 100);
  for (auto& g : snapshot->group_of) g = static_cast<std::size_t>(rng.uniform(0, 32));
  const std::shared_ptr<const pipeline::CampaignSnapshot> frozen = snapshot;
  server::SnapshotResponseCache cache;
  // The cache counters are a per-campaign labeled family, so the delta reads
  // campaign 0's series rather than a plain registry counter.
  obs::Counter& hit_series =
      obs::MetricsRegistry::global()
          .counter_family("server.snapshot_cache.hits", "campaign")
          .at("0");
  const std::uint64_t hits_before = hit_series.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.get(0, frozen, server::SnapshotResponseCache::View::kTruths));
  }
  state.counters["cache_hits"] = benchmark::Counter(
      static_cast<double>(hit_series.value() - hits_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SnapshotRenderCached);

void BM_SnapshotRenderUncached(benchmark::State& state) {
  // The render a cache miss pays, with reused output storage.
  pipeline::CampaignSnapshot snapshot;
  snapshot.campaign = 0;
  snapshot.version = 1;
  snapshot.truths.resize(256);
  snapshot.group_of.resize(512);
  snapshot.group_weights.resize(32, 1.0);
  snapshot.group_count = 32;
  Rng rng(33);
  for (auto& t : snapshot.truths) t = rng.uniform(-100, 100);
  for (auto& g : snapshot.group_of) g = static_cast<std::size_t>(rng.uniform(0, 32));
  std::string out;
  for (auto _ : state) {
    out.clear();
    pipeline::to_json_into(snapshot, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_SnapshotRenderUncached);

}  // namespace

// BENCHMARK_MAIN plus a `--json` alias for --benchmark_format=json, so CI
// scripts don't need to remember the long flag.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char json_flag[] = "--benchmark_format=json";
  for (char*& arg : args) {
    if (std::strcmp(arg, "--json") == 0) arg = json_flag;
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
