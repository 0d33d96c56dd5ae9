#include "pipeline/status_json.h"

#include <charconv>

#include "obs/format.h"

namespace sybiltd::pipeline {

namespace {

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[20];  // 2^64 - 1 has 20 digits
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void append_u64(std::string& out, const char* key, std::uint64_t value,
                bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += '"';
  out += key;
  out += "\": ";
  append_uint(out, value);
}

void append_double(std::string& out, const char* key, double value,
                   bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += '"';
  out += key;
  out += "\": ";
  obs::append_json_number(out, value);
}

template <typename T, typename Append>
void append_array(std::string& out, const char* key, const std::vector<T>& v,
                  bool* first, Append&& append_one) {
  if (!*first) out += ", ";
  *first = false;
  out += '"';
  out += key;
  out += "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    append_one(out, v[i]);
  }
  out += ']';
}

}  // namespace

std::string to_json(const ShardStatus& status) {
  std::string out = "{";
  bool first = true;
  append_u64(out, "shard", status.shard, &first);
  append_u64(out, "queue_depth", status.queue_depth, &first);
  append_u64(out, "queue_capacity", status.queue_capacity, &first);
  append_u64(out, "queue_high_watermark", status.queue_high_watermark,
             &first);
  append_u64(out, "accepted", status.accepted, &first);
  append_u64(out, "rejected", status.rejected, &first);
  append_u64(out, "applied", status.applied, &first);
  append_u64(out, "batches", status.batches, &first);
  append_u64(out, "regroups", status.regroups, &first);
  append_u64(out, "evictions", status.evictions, &first);
  append_u64(out, "publications", status.publications, &first);
  out += '}';
  return out;
}

std::string to_json(const EngineCounters& counters) {
  std::string out = "{";
  bool first = true;
  append_u64(out, "submitted", counters.submitted, &first);
  append_u64(out, "submitted_batches", counters.submitted_batches, &first);
  append_u64(out, "accepted", counters.accepted, &first);
  append_u64(out, "rejected", counters.rejected, &first);
  append_u64(out, "applied", counters.applied, &first);
  append_u64(out, "batches", counters.batches, &first);
  append_u64(out, "regroups", counters.regroups, &first);
  append_u64(out, "evictions", counters.evictions, &first);
  append_u64(out, "publications", counters.publications, &first);
  append_array(out, "shards", counters.shards, &first,
               [](std::string& o, const ShardStatus& s) { o += to_json(s); });
  out += '}';
  return out;
}

std::string to_json(const CampaignSnapshot& snapshot) {
  std::string out;
  to_json_into(snapshot, out);
  return out;
}

void to_json_into(const CampaignSnapshot& snapshot, std::string& out) {
  out += '{';
  bool first = true;
  append_u64(out, "campaign", snapshot.campaign, &first);
  append_u64(out, "version", snapshot.version, &first);
  // A NaN truth (no live data) renders as null.
  append_array(out, "truths", snapshot.truths, &first,
               [](std::string& o, double v) { obs::append_json_number(o, v); });
  append_array(out, "group_weights", snapshot.group_weights, &first,
               [](std::string& o, double v) { obs::append_json_number(o, v); });
  append_array(out, "group_of", snapshot.group_of, &first,
               [](std::string& o, std::size_t v) { append_uint(o, v); });
  append_u64(out, "group_count", snapshot.group_count, &first);
  append_u64(out, "live_observations", snapshot.live_observations, &first);
  append_u64(out, "applied_reports", snapshot.applied_reports, &first);
  append_u64(out, "iterations", snapshot.iterations, &first);
  if (!first) out += ", ";
  out += "\"converged\": ";
  out += snapshot.converged ? "true" : "false";
  first = false;
  append_double(out, "final_residual", snapshot.final_residual, &first);
  append_double(out, "weight_entropy", snapshot.weight_entropy, &first);
  out += '}';
}

void groups_json_into(const CampaignSnapshot& snapshot, std::string& out) {
  out += "{\"campaign\": ";
  append_uint(out, snapshot.campaign);
  out += ", \"version\": ";
  append_uint(out, snapshot.version);
  out += ", \"group_count\": ";
  append_uint(out, snapshot.group_count);
  out += ", \"group_of\": [";
  for (std::size_t i = 0; i < snapshot.group_of.size(); ++i) {
    if (i > 0) out += ", ";
    append_uint(out, snapshot.group_of[i]);
  }
  out += "], \"group_weights\": [";
  for (std::size_t i = 0; i < snapshot.group_weights.size(); ++i) {
    if (i > 0) out += ", ";
    obs::append_json_number(out, snapshot.group_weights[i]);
  }
  out += "]}";
}

}  // namespace sybiltd::pipeline
