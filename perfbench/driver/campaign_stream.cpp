// campaign_stream: one closed-loop client on the campaign shape the paper's
// Algorithm 2 is about.
//
// About 2,000 accounts over 64 tasks, 10% of them Sybil accounts in groups
// of five that replay one schedule, rho = 0 and decay on.  The stream
// replays the population round after round (every (account, task) once per
// round, in timestamp order, with fresh values), and the decay horizon is
// 0.9 of a round: every report of a round is a new membership whose
// previous copy was already evicted, and after one untimed warm-up round
// the live set and the cost per operation stay constant.  The pipeline
// (apply, evict, regroup, refine, publish) does nearly all the work.
//
// One operation takes a 256-report POST through the layers the server runs
// for it, in their order and on one thread: HttpParser, decode_reports,
// CampaignState::apply / evict_stale / grouping / refine_and_publish, and
// SnapshotResponseCache::get for the truths view.  The end-to-end figures
// time that path in-process.  Over HTTP against a spawned sybiltd_server
// (`--loops 1 --shards 1`) the same operation's p50 moved between 38 and
// 62 ms over runs of identical code at a constant CPU cost per report: the
// shard thread sleeps through every client round trip, and on a shared
// 4-vCPU virtual machine its wake-ups land unpredictably.  The traced run
// still serves the same inputs over HTTP (POST; poll /v1/status until the
// batch is applied; GET truths, where the latency ends; GET groups),
// requires the in-process snapshot to equal the served one bit for bit, and
// reports what the server adds as pipeline.queue_wait_ms.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "http_client.h"
#include "pipeline/shard.h"
#include "population.h"
#include "server/http.h"
#include "server/report_decode.h"
#include "server/snapshot_cache.h"
#include "server_process.h"
#include "simd/simd.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace pl = sybiltd::pipeline;
namespace srv = sybiltd::server;

constexpr std::size_t kTasks = 64;
constexpr std::size_t kBatch = 256;
constexpr double kRho = 0.0;
// The decay horizon as a share of one round of the population.
constexpr double kHorizonShare = 0.9;
// ShardOptions::influence_floor's default, which the server keeps.
constexpr double kInfluenceFloor = 1e-4;
constexpr auto kPollBackoff = std::chrono::microseconds(500);
constexpr unsigned kPoolThreads = 1;
// Correctness gates on the served snapshot, and the live-set guard.
constexpr double kMaxMae = 1.0;
constexpr double kMinAri = 0.9;
constexpr double kMaxLiveDrift = 0.01;

struct Plan {
  std::uint64_t seed = 0;
  SybilCampaign campaign;
  std::vector<StreamReport> round;
  double decay = 1.0;
  std::uint64_t horizon = 0;  // reports a report stays live for

  // Report k of the endless stream: round k / |round|, with a fresh value.
  StreamReport at(std::uint64_t k) const {
    StreamReport r = round[k % round.size()];
    const double z = keyed_normal(seed, k);
    r.value = campaign.sybil[r.account] ? -50.0 + 0.5 * z
                                        : campaign.truth[r.task] + 2.0 * z;
    r.timestamp_hours += 6.0 * static_cast<double>(k / round.size());
    return r;
  }

  std::string post(std::uint64_t first) const {
    std::vector<StreamReport> batch(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) batch[i] = at(first + i);
    std::string body;
    append_reports_json(batch.data(), batch.size(), &body);
    return make_request("POST", "/v1/campaigns/0/reports", body);
  }
};

Plan make_plan(const RunConfig& config) {
  Plan plan;
  plan.seed = config.seed;
  plan.campaign = make_sybil_campaign(config.smoke ? 200 : 2000, kTasks, config.seed);
  plan.round = round_order(plan.campaign);
  const double n = static_cast<double>(plan.round.size());
  // A re-submission must find its previous copy evicted, so the horizon
  // ends well before the next round reaches the same report.
  const double target = std::floor(std::min(kHorizonShare * n, n - 2.0 * kBatch));
  plan.decay = std::exp(std::log(kInfluenceFloor) / target);
  // The shard evicts once pow(decay, age) < floor; find that age exactly.
  std::uint64_t age = static_cast<std::uint64_t>(target) - 2;
  while (!(std::pow(plan.decay, static_cast<double>(age)) < kInfluenceFloor)) ++age;
  plan.horizon = age;
  return plan;
}

std::vector<std::string> server_flags(const Plan& plan) {
  char decay[32];
  std::snprintf(decay, sizeof decay, "%.17g", plan.decay);
  return {"--loops",     "1",   "--shards",         "1",
          "--campaigns", "1",   "--tasks",          std::to_string(kTasks),
          "--rho",       "0",   "--decay",          decay,
          "--max-batch", "256", "--queue-capacity", "4096"};
}

// One operation over HTTP: POST the batch, poll GET /v1/status until the
// engine has applied it, GET .../truths (the covering snapshot; the
// latency ends with its last byte), GET .../groups.  Negative on failure,
// with `problem` set.
double http_operation(HttpConnection& conn, const Plan& plan, std::uint64_t* sent,
                      std::string* truths, std::string* problem) {
  const std::string post = plan.post(*sent);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(30);
  HttpResponse response;
  std::uint64_t accepted = 0;
  if (!conn.roundtrip(post, &response, deadline)) {
    *problem = "POST: no response";
    return -1.0;
  }
  json_u64(response.body, "accepted", &accepted);
  if (response.status != 202 || accepted != kBatch) {
    *problem = "POST: HTTP " + std::to_string(response.status) + " accepted " +
               std::to_string(accepted);
    return -1.0;
  }
  *sent += kBatch;
  const std::string status = make_request("GET", "/v1/status");
  while (true) {
    std::uint64_t applied = 0;
    if (!conn.roundtrip(status, &response, deadline) || response.status != 200) {
      *problem = "GET status failed or timed out";
      return -1.0;
    }
    if (json_u64(response.body, "applied", &applied) && applied >= *sent) break;
    std::this_thread::sleep_for(kPollBackoff);
  }
  std::uint64_t covered = 0;
  if (!conn.roundtrip(make_request("GET", "/v1/campaigns/0/truths"), &response,
                      deadline) ||
      response.status != 200 ||
      !json_u64(response.body, "applied_reports", &covered) || covered < *sent) {
    *problem = "GET truths failed or did not cover the batch";
    return -1.0;
  }
  const double latency_ms = ms_between(start, Clock::now());
  truths->swap(response.body);
  if (!conn.roundtrip(make_request("GET", "/v1/campaigns/0/groups"), &response,
                      deadline) ||
      response.status != 200) {
    *problem = "GET groups failed";
    return -1.0;
  }
  return latency_ms;
}

struct Served {
  std::vector<double> latencies_ms;
  std::uint64_t warmup_reports = 0;
  std::string warmup_truths;  // the snapshot served after the warm-up round
  std::string simd;
};

// The real server on the same inputs: one warm-up round, then closed-loop
// operations for the run's length.
Served serve(const RunConfig& config, const Plan& plan, RunResult* result) {
  Served out;
  ServerProcess server(config.server, server_flags(plan), kPoolThreads,
                       config.work_dir, "campaign_stream");
  server.start();
  HttpConnection conn;
  if (!conn.connect(server.port())) throw std::runtime_error("cannot connect to the server");
  std::uint64_t sent = 0;
  std::string truths, problem;
  const auto run = [&](bool warm_up, Clock::time_point end) {
    while (warm_up ? sent < plan.round.size() : Clock::now() < end) {
      ++result->attempted;
      const double latency_ms = http_operation(conn, plan, &sent, &truths, &problem);
      if (latency_ms < 0) {
        ++result->failed;
        result->problems.push_back("served: " + problem);
        return false;
      }
      if (!warm_up) out.latencies_ms.push_back(latency_ms);
    }
    return true;
  };
  if (run(true, {})) {
    out.warmup_reports = sent;
    out.warmup_truths = truths;
    run(false, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(config.seconds)));
  }
  out.simd = server_simd_level(&conn);
  if (!server.stop()) result->problems.push_back("server did not exit cleanly");
  return out;
}

// One operation's path through the server's layers, in-process, with a span
// around each call while the recorder is enabled.
class Pipeline {
 public:
  struct Counts {
    std::uint64_t new_memberships = 0, evicted = 0, group_count = 0, live = 0;
    std::uint64_t render_bytes = 0, renders = 0, fast = 0;
  };

  explicit Pipeline(const Plan& plan)
      : plan_(plan),
        options_(shard_options(plan)),
        state_(0, kTasks, &options_, &cell_, &counters_) {}

  SpanRecorder spans;

  std::uint64_t sent() const { return sent_; }
  std::size_t live() const { return state_.live_observations(); }
  std::shared_ptr<const pl::CampaignSnapshot> snapshot() const { return cell_.read(); }

  // Parse, decode, apply, evict, regroup, refine and publish the next batch,
  // then render the truths view.  False when the request does not decode to
  // the whole batch.
  bool operation(Counts* counts) {
    const std::string request = plan_.post(sent_);
    SpanRecorder::Scoped op(spans, "operation");
    srv::HttpRequest http;
    bool parsed = false;
    {
      SpanRecorder::Scoped s(spans, "server.parse");
      parser_.feed(request);
      parsed = parser_.next(http) == srv::HttpParser::Status::kRequest;
    }
    if (!parsed) return false;
    srv::DecodedReports decoded = [&] {
      SpanRecorder::Scoped s(spans, "server.decode");
      return srv::decode_reports(http.body, 0, kTasks);
    }();
    if (!decoded.ok || decoded.reports.size() != kBatch) return false;
    const std::size_t live_before = state_.live_observations();
    {
      SpanRecorder::Scoped s(spans, "pipeline.apply");
      for (const pl::Report& report : decoded.reports) state_.apply(report);
    }
    const std::size_t live_applied = state_.live_observations();
    {
      SpanRecorder::Scoped s(spans, "pipeline.evict");
      state_.evict_stale();
    }
    std::size_t groups = 0;
    {
      SpanRecorder::Scoped s(spans, "pipeline.regroup");
      groups = state_.grouping().group_count();
    }
    {
      SpanRecorder::Scoped s(spans, "pipeline.refine");
      state_.refine_and_publish(false);
    }
    std::shared_ptr<const std::string> body;
    {
      SpanRecorder::Scoped s(spans, "server.render");
      body = cache_.get(0, cell_.read(), srv::SnapshotResponseCache::View::kTruths);
    }
    sent_ += kBatch;
    if (counts != nullptr) {
      counts->fast += decoded.fast_path ? 1 : 0;
      counts->new_memberships += live_applied - live_before;
      counts->evicted += live_applied - state_.live_observations();
      counts->group_count += groups;
      counts->live += state_.live_observations();
      counts->render_bytes += body->size();
      ++counts->renders;
    }
    return true;
  }

  // Outside the operation: the groups view a client fetches after the
  // covering response, and a probe of the as_framework_input copy that
  // refine_and_publish makes internally (its time is moved from refine to
  // view in the table).
  void after_operation(Counts* counts) {
    {
      SpanRecorder::Scoped s(spans, "server.render.groups");
      counts->render_bytes +=
          cache_.get(0, cell_.read(), srv::SnapshotResponseCache::View::kGroups)->size();
      ++counts->renders;
    }
    SpanRecorder::Scoped s(spans, "pipeline.view");
    const auto view = state_.as_framework_input();
    (void)view;
  }

 private:
  static pl::ShardOptions shard_options(const Plan& plan) {
    pl::ShardOptions options;  // the server's defaults, plus its two flags
    options.rho = kRho;
    options.decay = plan.decay;
    return options;
  }

  const Plan& plan_;
  const pl::ShardOptions options_;
  pl::SnapshotCell cell_;
  pl::ShardCounters counters_;
  pl::CampaignState state_;
  srv::SnapshotResponseCache cache_;
  srv::HttpParser parser_;
  std::uint64_t sent_ = 0;
};

// MAE of the published truths against the generator's, and ARI of the
// published grouping against the true account->user labels over the
// accounts whose whole schedule is live.
void check_snapshot(const Plan& plan, std::uint64_t sent,
                    const pl::CampaignSnapshot& snapshot, RunResult* result) {
  std::size_t covered = 0;
  const double mae = mean_abs_error(snapshot.truths, plan.campaign.truth, &covered);
  const std::size_t accounts = plan.campaign.user_of.size();
  std::vector<std::size_t> in_window(accounts, 0);
  for (std::uint64_t k = sent > plan.horizon ? sent - plan.horizon : 0; k < sent; ++k) {
    ++in_window[plan.round[k % plan.round.size()].account];
  }
  std::vector<std::size_t> want, got;
  for (std::size_t a = 0; a < accounts && a < snapshot.group_of.size(); ++a) {
    if (in_window[a] == plan.campaign.input.accounts[a].reports.size()) {
      want.push_back(plan.campaign.user_of[a]);
      got.push_back(snapshot.group_of[a]);
    }
  }
  const double ari = adjusted_rand_index(got, want);
  std::printf("gate: MAE %.4f over %zu/%zu tasks (bound %.2f); ARI %.4f over "
              "%zu fully-live accounts (bound %.2f)\n",
              mae, covered, kTasks, kMaxMae, ari, want.size(), kMinAri);
  result->note("mae", mae);
  result->note("ari", ari);
  if (mae > kMaxMae || covered < kTasks * 9 / 10) {
    result->fail_gate("gate: MAE " + format_number(mae) + " over " +
                      std::to_string(covered) + " tasks");
  }
  if (ari < kMinAri || want.empty()) {
    result->fail_gate("gate: ARI " + format_number(ari));
  }
}

// Input generation and one untimed round of the population.
std::unique_ptr<Pipeline> set_up(const Plan& plan, RunResult* result) {
  auto pipeline = std::make_unique<Pipeline>(plan);
  pipeline->spans.set_enabled(false);
  while (pipeline->sent() < plan.round.size()) {
    ++result->attempted;
    if (!pipeline->operation(nullptr)) {
      throw std::runtime_error("a warm-up batch did not parse or decode");
    }
  }
  return pipeline;
}

}  // namespace

void run_campaign_stream(const RunConfig& config, RunResult* result) {
  const int setups = config.trace ? 1 : kSetupRepetitions;
  EndToEnd e2e;
  std::unique_ptr<Plan> plan;
  std::unique_ptr<Pipeline> pipeline;
  for (int rep = 0; rep < setups; ++rep) {
    pipeline.reset();
    const auto t0 = Clock::now();
    plan = std::make_unique<Plan>(make_plan(config));
    pipeline = set_up(*plan, result);
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  result->note("accounts", static_cast<double>(plan->campaign.user_of.size()));
  result->note("reports_per_round", static_cast<double>(plan->round.size()));
  result->note("decay_horizon_reports", static_cast<double>(plan->horizon));
  result->note("decay", plan->decay);
  result->note("reports_per_operation", static_cast<double>(kBatch));

  std::vector<double> traced_ms;
  std::vector<std::size_t> live;
  Pipeline::Counts counts;
  Served served;
  if (config.trace) {
    served = serve(config, *plan, result);
    result->note("simd_level", served.simd);
    result->note("loops", 1);
    result->note("shards", 1);
    result->note("pool_threads", kPoolThreads);
    // The in-process path must publish exactly what the server served after
    // the same batches.
    std::vector<double> truths;
    const auto& replayed = pipeline->snapshot()->truths;
    if (served.warmup_reports != pipeline->sent() ||
        !json_number_array(served.warmup_truths, "truths", &truths) ||
        truths.size() != replayed.size() ||
        !std::equal(truths.begin(), truths.end(), replayed.begin(),
                    [](double a, double b) {
                      return (std::isnan(a) && std::isnan(b)) || a == b;
                    })) {
      result->fail_gate("gate: the in-process snapshot differs from the served one");
    }
  } else {
    result->note("simd_level", std::string(sybiltd::simd::level_name(
                                   sybiltd::simd::active_level())));
  }

  // In the traced run every second operation is traced; the others are the
  // untraced reference for latency and overhead.
  const auto end = Clock::now() + std::chrono::duration<double>(config.seconds);
  const double cpu0 = self_cpu_seconds();
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const bool traced = config.trace && i % 2 == 1;
    pipeline->spans.set_enabled(traced);
    pipeline->spans.set_op(i);
    ++result->attempted;
    const auto t0 = Clock::now();
    if (!pipeline->operation(traced ? &counts : nullptr)) {
      ++result->failed;
      result->problems.push_back("timed: a batch did not parse or decode");
      break;
    }
    (traced ? traced_ms : e2e.latencies_ms).push_back(ms_between(t0, Clock::now()));
    if (traced) pipeline->after_operation(&counts);
    if (!traced) e2e.reports += kBatch;
    live.push_back(pipeline->live());
  }
  e2e.cpu_seconds = self_cpu_seconds() - cpu0;
  e2e.peak_rss_mb = peak_rss_mb(::getpid());

  check_snapshot(*plan, pipeline->sent(), *pipeline->snapshot(), result);
  if (!live.empty()) {
    const auto [lo, hi] = std::minmax_element(live.begin(), live.end());
    std::printf("live_observations over the timed window: min %zu, max %zu "
                "(horizon %llu reports)\n",
                *lo, *hi, static_cast<unsigned long long>(plan->horizon));
    if (static_cast<double>(*hi - *lo) > kMaxLiveDrift * static_cast<double>(*hi)) {
      result->fail_gate("steady-state guard: live_observations drifted from " +
                        std::to_string(*lo) + " to " + std::to_string(*hi));
    }
  }

  if (!config.trace) {
    report_end_to_end(e2e, result);
    return;
  }

  const double p50_ms = quantile(e2e.latencies_ms, 0.5);
  const double served_p50_ms = quantile(served.latencies_ms, 0.5);
  std::printf("served over HTTP: latency p50 %.4f ms, p90 %.4f ms (n=%zu); "
              "in-process p50 %.4f ms (n=%zu)\n",
              served_p50_ms, quantile(served.latencies_ms, 0.9),
              served.latencies_ms.size(), p50_ms, e2e.latencies_ms.size());
  const auto totals = pipeline->spans.totals();
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, self("operation").count));
  const double per_op = 1.0 / ops;
  const double parse_us = self("server.parse").self_us * per_op;
  const double decode_us = self("server.decode").self_us * per_op;
  const double apply_us = self("pipeline.apply").self_us * per_op;
  const double evict_us = self("pipeline.evict").self_us * per_op;
  const double regroup_us = self("pipeline.regroup").self_us * per_op;
  const double view_us = self("pipeline.view").self_us * per_op;
  const double refine_us = self("pipeline.refine").self_us * per_op - view_us;
  const double render_us = self("server.render").self_us * per_op;
  const double render_groups_us = self("server.render.groups").self_us * per_op;
  const double timed_ms =
      (parse_us + decode_us + apply_us + evict_us + regroup_us + view_us +
       refine_us + render_us) / 1e3;

  std::map<std::string, LayerValue> values;
  values["server.parse.us_per_request"] = {parse_us, parse_us / 1e3};
  values["server.decode.us_per_request"] = {decode_us, decode_us / 1e3};
  values["server.decode.fast_ratio"] = {static_cast<double>(counts.fast) * per_op};
  values["server.render.us_per_get"] = {(render_us + render_groups_us) / 2.0,
                                        render_us / 1e3};
  values["server.render.bytes_per_get"] = {
      counts.renders ? static_cast<double>(counts.render_bytes) /
                           static_cast<double>(counts.renders)
                     : 0.0};
  values["pipeline.apply.us_per_report"] = {apply_us / kBatch, apply_us / 1e3};
  values["pipeline.apply.new_membership_ratio"] = {
      static_cast<double>(counts.new_memberships) / (ops * kBatch)};
  values["pipeline.evict.us_per_batch"] = {evict_us, evict_us / 1e3};
  values["pipeline.evict.evicted_per_batch"] = {static_cast<double>(counts.evicted) * per_op};
  values["pipeline.regroup.us_per_batch"] = {regroup_us, regroup_us / 1e3};
  values["pipeline.regroup.group_count"] = {static_cast<double>(counts.group_count) * per_op};
  values["pipeline.view.us_per_batch"] = {view_us, view_us / 1e3};
  values["pipeline.refine.us_per_batch"] = {refine_us, refine_us / 1e3};
  values["pipeline.live_observations"] = {static_cast<double>(counts.live) * per_op};
  // What the real server adds on top of the in-process path: HTTP, the
  // shard queue hand-off, scheduling and the client's polling.
  const double queue_wait_ms = served_p50_ms - timed_ms;
  values["pipeline.queue_wait_ms"] = {queue_wait_ms, 0.0, true};
  const double overhead = 100.0 * (mean(traced_ms) - mean(e2e.latencies_ms)) /
                          std::max(1e-9, mean(e2e.latencies_ms));
  report_layers("campaign_stream", values, p50_ms, static_cast<std::uint64_t>(ops),
                overhead, result);
  std::printf("served p50 %.4f ms = timed layers %.4f ms + pipeline.queue_wait_ms "
              "%.4f ms\n",
              served_p50_ms, timed_ms, queue_wait_ms);
  const std::string path = config.work_dir + "/trace-campaign_stream-" +
                           std::to_string(config.seed) + ".json";
  if (pipeline->spans.write_chrome_trace(path)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), pipeline->spans.size());
  }
}

}  // namespace perfbench
