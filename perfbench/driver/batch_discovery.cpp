// batch_discovery: both grouped truth-discovery methods over whole
// campaigns, as in-process library calls.
//
// One operation runs TD-TS and TD-TR on one 10^4-account, 64-task campaign
// (AgTs{rho = 0} -> run_framework, then AgTr{} -> run_framework); the
// campaigns form a small pool generated during set-up.  With about 9.2k
// distinct task sets the AG-TS set join is past its exhaustive tier, so the
// MinHash tier runs.  The candidate, core and truth layers do all the work
// and neither the server nor the pipeline runs, so changes there should
// leave this workload unchanged.  group_data and CRH run here as one large
// call each, where campaign_stream runs them as many small ones.  The
// thread pool has a fixed size of 1: two threads measured noisier.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/thread_pool.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "population.h"
#include "simd/simd.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = sybiltd::core;

constexpr std::size_t kTasks = 64;
constexpr unsigned kPoolThreads = 1;
constexpr double kMaxMae = 1.0;
constexpr double kMinAri = 0.9;

struct Shape {
  std::size_t accounts;
  std::size_t campaigns;  // pool size; operations cycle through it
};

Shape shape_for(const RunConfig& config) {
  return config.smoke ? Shape{1000, 2} : Shape{10000, 3};
}

core::AgTsOptions ts_options() {
  core::AgTsOptions options;
  options.rho = 0.0;
  return options;
}

struct Truths {
  std::vector<double> ts;
  std::vector<double> tr;

  bool operator==(const Truths& other) const {
    const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
               return (std::isnan(x) && std::isnan(y)) || x == y;
             });
    };
    return same(ts, other.ts) && same(tr, other.tr);
  }
};

Truths run_operation(const core::FrameworkInput& input) {
  return {core::run_framework(input, core::AgTs(ts_options())).truths,
          core::run_framework(input, core::AgTr()).truths};
}

struct Campaign {
  SybilCampaign data;
  std::uint64_t reports = 0;
  Truths reference;  // the warm-up result every later operation must equal
};

// Generate the pool and run each campaign once.  The warm-up results are
// the determinism reference and go through the MAE / ARI gates.
std::vector<Campaign> set_up(const RunConfig& config, bool gate, RunResult* result) {
  const Shape shape = shape_for(config);
  std::vector<Campaign> pool(shape.campaigns);
  for (std::size_t c = 0; c < pool.size(); ++c) {
    Campaign& campaign = pool[c];
    campaign.data =
        make_sybil_campaign(shape.accounts, kTasks, config.seed * 1000003 + c);
    for (const auto& account : campaign.data.input.accounts) {
      campaign.reports += account.reports.size();
    }
    const auto ts = core::run_framework(campaign.data.input, core::AgTs(ts_options()));
    const auto tr = core::run_framework(campaign.data.input, core::AgTr());
    campaign.reference = {ts.truths, tr.truths};
    ++result->attempted;
    if (!gate) continue;
    std::size_t covered_ts = 0, covered_tr = 0;
    const double mae_ts = mean_abs_error(ts.truths, campaign.data.truth, &covered_ts);
    const double mae_tr = mean_abs_error(tr.truths, campaign.data.truth, &covered_tr);
    const double ari_ts = adjusted_rand_index(ts.grouping.labels(), campaign.data.user_of);
    const double ari_tr = adjusted_rand_index(tr.grouping.labels(), campaign.data.user_of);
    std::printf("gate: campaign %zu TD-TS MAE %.4f ARI %.4f, TD-TR MAE %.4f ARI "
                "%.4f (bounds MAE <= %.2f, ARI >= %.2f)\n",
                c, mae_ts, ari_ts, mae_tr, ari_tr, kMaxMae, kMinAri);
    result->note("mae_ts_" + std::to_string(c), mae_ts);
    result->note("ari_ts_" + std::to_string(c), ari_ts);
    result->note("mae_tr_" + std::to_string(c), mae_tr);
    result->note("ari_tr_" + std::to_string(c), ari_tr);
    if (mae_ts > kMaxMae || mae_tr > kMaxMae || covered_ts < kTasks ||
        covered_tr < kTasks) {
      result->fail_gate("gate: MAE above bound on campaign " + std::to_string(c));
    }
    if (ari_ts < kMinAri || ari_tr < kMinAri) {
      result->fail_gate("gate: ARI below bound on campaign " + std::to_string(c));
    }
  }
  return pool;
}

// Algorithm 2 after grouping, composed from the primitives run_framework is
// built from, with a span around each.
std::vector<double> traced_framework(const core::FrameworkInput& input,
                                     const core::AccountGrouping& grouping,
                                     SpanRecorder& spans, std::uint64_t* iterations) {
  const core::FrameworkOptions options;
  const core::GroupedData grouped = [&] {
    SpanRecorder::Scoped s(spans, "core.group_data");
    return core::group_data(input, grouping, options.data_grouping);
  }();
  std::vector<double> norm, truths, weights;
  {
    SpanRecorder::Scoped s(spans, "core.framework_init");
    norm = core::framework_task_normalizers(grouped, input.task_count);
    truths = core::framework_initial_truths(grouped, input.task_count,
                                            options.init_with_eq5);
    weights.assign(grouping.group_count(), 1.0);
  }
  for (std::size_t iter = 0; iter < options.convergence.max_iterations; ++iter) {
    ++*iterations;
    double delta = 0.0;
    {
      SpanRecorder::Scoped s(spans, "truth.crh");
      delta = core::framework_iterate_once(grouped, norm, options.loss_epsilon,
                                           truths, weights);
    }
    if (delta < options.convergence.truth_tolerance) break;
  }
  return truths;
}

}  // namespace

void run_batch_discovery(const RunConfig& config, RunResult* result) {
  sybiltd::ThreadPool::set_global_concurrency(kPoolThreads);
  const int setups = config.trace ? 1 : kSetupRepetitions;
  EndToEnd e2e;
  std::vector<Campaign> pool;
  for (int rep = 0; rep < setups; ++rep) {
    pool.clear();
    const auto t0 = Clock::now();
    pool = set_up(config, rep + 1 == setups, result);
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  SpanRecorder spans;
  std::vector<double> traced_ms;
  std::uint64_t iterations = 0, verified = 0, edges = 0, tr_pairs = 0,
                tr_candidates = 0, tr_exact = 0;
  std::size_t distinct_sets = 0;
  bool exhaustive = false;
  const auto end = Clock::now() + std::chrono::duration<double>(config.seconds);
  const double cpu0 = self_cpu_seconds();
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const Campaign& campaign = pool[i % pool.size()];
    const core::FrameworkInput& input = campaign.data.input;
    // In the traced run every second operation is decomposed into spans;
    // the others are the untraced reference for latency and overhead.
    const bool traced = config.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_op(i);
    ++result->attempted;
    Truths out;
    const auto t0 = Clock::now();
    if (!traced) {
      out = run_operation(input);
    } else {
      SpanRecorder::Scoped op(spans, "operation");
      core::AgTsStats ts_stats;
      const core::AccountGrouping ts_groups = [&] {
        SpanRecorder::Scoped s(spans, "core.agts");
        return core::AgTs(ts_options()).group_with_stats(input, &ts_stats);
      }();
      out.ts = traced_framework(input, ts_groups, spans, &iterations);
      core::AgTrStats tr_stats;
      const core::AccountGrouping tr_groups = [&] {
        SpanRecorder::Scoped s(spans, "core.agtr");
        return core::AgTr().group_with_stats(input, &tr_stats);
      }();
      out.tr = traced_framework(input, tr_groups, spans, &iterations);
      verified += ts_stats.join.candidates;
      edges += ts_stats.join.edges;
      distinct_sets = ts_stats.join.distinct_sets;
      exhaustive = ts_stats.join.exhaustive;
      tr_pairs += tr_stats.pairs;
      tr_candidates += tr_stats.candidates;
      tr_exact += tr_stats.exact_pairs;
    }
    const double ms = ms_between(t0, Clock::now());
    (traced ? traced_ms : e2e.latencies_ms).push_back(ms);
    if (!traced) e2e.reports += campaign.reports;
    if (!(out == campaign.reference)) {
      ++result->failed;
      result->fail_gate("gate: operation " + std::to_string(i) +
                        " returned truths that differ from the first run on "
                        "the same campaign");
      break;
    }
  }
  e2e.cpu_seconds = self_cpu_seconds() - cpu0;
  e2e.peak_rss_mb = peak_rss_mb(::getpid());

  result->note("simd_level", std::string(sybiltd::simd::level_name(
                                 sybiltd::simd::active_level())));
  result->note("pool_threads", sybiltd::ThreadPool::global().concurrency());
  result->note("accounts", static_cast<double>(shape_for(config).accounts));
  result->note("campaigns", static_cast<double>(pool.size()));

  if (!config.trace) {
    report_end_to_end(e2e, result);
    return;
  }

  const auto totals = spans.totals();
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, self("operation").count));
  const double agts_ms = self("core.agts").self_us / ops / 1e3;
  const double agtr_ms = self("core.agtr").self_us / ops / 1e3;
  const double group_data_ms = self("core.group_data").self_us / ops / 1e3;
  const double init_ms = self("core.framework_init").self_us / ops / 1e3;
  const double crh_ms = self("truth.crh").self_us / ops / 1e3;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  std::map<std::string, LayerValue> values;
  values["core.agts.ms_per_campaign"] = {agts_ms, agts_ms};
  values["candidate.setjoin.verified_pairs"] = {static_cast<double>(verified) / ops};
  values["candidate.setjoin.edge_ratio"] = {ratio(edges, verified)};
  values["core.agtr.ms_per_campaign"] = {agtr_ms, agtr_ms};
  values["candidate.blocking.candidate_ratio"] = {ratio(tr_candidates, tr_pairs)};
  values["candidate.cascade.exact_ratio"] = {ratio(tr_exact, tr_candidates)};
  values["core.group_data.ms_per_campaign"] = {group_data_ms, group_data_ms};
  values["core.framework_init.ms_per_campaign"] = {init_ms, init_ms};
  values["truth.crh.us_per_iteration"] = {
      iterations ? self("truth.crh").self_us / static_cast<double>(iterations) : 0.0,
      crh_ms};
  values["truth.crh.iterations"] = {static_cast<double>(iterations) / ops};
  const double untraced_p50 = quantile(e2e.latencies_ms, 0.5);
  const double overhead = 100.0 * (mean(traced_ms) - mean(e2e.latencies_ms)) /
                          std::max(1e-9, mean(e2e.latencies_ms));
  std::printf("set join: %zu distinct task sets, %s tier\n", distinct_sets,
              exhaustive ? "exhaustive" : "MinHash");
  report_layers("batch_discovery", values, untraced_p50,
                static_cast<std::uint64_t>(ops), overhead, result);
  const std::string path = config.work_dir + "/trace-batch_discovery-" +
                           std::to_string(config.seed) + ".json";
  if (spans.write_chrome_trace(path)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
  }
}

}  // namespace perfbench
