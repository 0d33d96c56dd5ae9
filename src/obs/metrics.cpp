#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/format.h"

namespace sybiltd::obs {

namespace detail {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

// --- Histogram --------------------------------------------------------------

std::size_t Histogram::bucket_for(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  const int exponent = std::ilogb(value);  // floor(log2(value))
  const int bucket = exponent + kBucketOffset;
  if (bucket < 0) return 0;
  if (bucket >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(bucket);
}

double Histogram::bucket_upper_edge(std::size_t bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket) - kBucketOffset + 1);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (const Stripe& stripe : stripes_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      counts[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

void Histogram::drain_into(Histogram& dest) {
  // Everything drained lands in one stripe of `dest` (this is the cold
  // family-eviction path, not a recording path, so stripe balance does not
  // matter); counts move via exchange so concurrent record()s are never
  // double-counted or lost.
  Stripe& target = dest.stripes_[detail::thread_slot() & (kStripes - 1)];
  for (Stripe& stripe : stripes_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t moved =
          stripe.buckets[b].exchange(0, std::memory_order_relaxed);
      if (moved > 0) {
        target.buckets[b].fetch_add(moved, std::memory_order_relaxed);
      }
    }
    const std::uint64_t count =
        stripe.count.exchange(0, std::memory_order_relaxed);
    if (count > 0) target.count.fetch_add(count, std::memory_order_relaxed);
    const double sum = stripe.sum.exchange(0.0, std::memory_order_relaxed);
    if (sum != 0.0) {
      double current = target.sum.load(std::memory_order_relaxed);
      while (!target.sum.compare_exchange_weak(current, current + sum,
                                               std::memory_order_relaxed)) {
      }
    }
  }
}

namespace detail {

void recycle_into(Counter& from, Counter& overflow) {
  from.drain_into(overflow);
}

void recycle_into(Gauge& from, Gauge& overflow) {
  (void)overflow;  // a level has no meaningful aggregate
  from.reset();
}

void recycle_into(Histogram& from, Histogram& overflow) {
  from.drain_into(overflow);
}

}  // namespace detail

// --- Registry ---------------------------------------------------------------

struct MetricsRegistry::Impl {
  enum class Kind {
    kCounter,
    kGauge,
    kHistogram,
    kCounterFamily,
    kGaugeFamily,
    kHistogramFamily,
  };
  struct Entry {
    Kind kind;
    std::size_t index;  // into the matching deque
  };

  // Registry construction time, the reference point of the process-level
  // `uptime_seconds` gauge (refreshed on every snapshot so /metrics
  // scrapes can turn counter totals into rates).
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  std::mutex mutex;
  // Deques: instrument addresses never move once registered, so the
  // references handed to instrumented code are stable.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::deque<CounterFamily> counter_families;
  std::deque<GaugeFamily> gauge_families;
  std::deque<HistogramFamily> histogram_families;
  std::unordered_map<std::string, Entry> by_name;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  // Help text parallel to the name vectors; the first non-empty help for a
  // name wins (instrumented code may register the same name help-free).
  std::vector<std::string> counter_helps;
  std::vector<std::string> gauge_helps;
  std::vector<std::string> histogram_helps;

  Entry& lookup(std::string_view name, Kind kind, std::string_view help) {
    auto [it, inserted] = by_name.try_emplace(std::string(name));
    if (!inserted) {
      if (it->second.kind != kind) {
        throw std::logic_error("metric '" + it->first +
                               "' already registered as a different kind");
      }
      if (!help.empty()) {
        std::vector<std::string>* helps = nullptr;
        switch (kind) {
          case Kind::kCounter: helps = &counter_helps; break;
          case Kind::kGauge: helps = &gauge_helps; break;
          case Kind::kHistogram: helps = &histogram_helps; break;
          default: return it->second;  // families use family_lookup
        }
        if ((*helps)[it->second.index].empty()) {
          (*helps)[it->second.index] = std::string(help);
        }
      }
      return it->second;
    }
    switch (kind) {
      case Kind::kCounter:
        it->second = {kind, counters.size()};
        counters.emplace_back();
        counter_names.emplace_back(name);
        counter_helps.emplace_back(help);
        break;
      case Kind::kGauge:
        it->second = {kind, gauges.size()};
        gauges.emplace_back();
        gauge_names.emplace_back(name);
        gauge_helps.emplace_back(help);
        break;
      case Kind::kHistogram:
        it->second = {kind, histograms.size()};
        histograms.emplace_back();
        histogram_names.emplace_back(name);
        histogram_helps.emplace_back(help);
        break;
      default:
        throw std::logic_error("family kinds register via family_lookup");
    }
    return it->second;
  }

  // Register-or-fetch a labeled family.  The caller holds `mutex`.
  template <typename FamilyT>
  FamilyT& family_lookup(std::deque<FamilyT>& families, Kind kind,
                         std::string_view name, std::string_view label_key,
                         std::string_view help, std::size_t max_series) {
    auto [it, inserted] = by_name.try_emplace(std::string(name));
    if (!inserted) {
      if (it->second.kind != kind) {
        throw std::logic_error("metric '" + it->first +
                               "' already registered as a different kind");
      }
      FamilyT& family = families[it->second.index];
      if (family.label_key() != label_key) {
        throw std::logic_error("metric family '" + it->first +
                               "' already registered with label key '" +
                               family.label_key() + "'");
      }
      family.set_help_if_empty(help);
      return family;
    }
    it->second = {kind, families.size()};
    families.emplace_back(std::string(name), std::string(label_key),
                          std::string(help), max_series);
    return families.back();
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented destructors (thread_local workspaces,
  // the global thread pool) may run after static destruction begins.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_
      ->counters[impl_->lookup(name, Impl::Kind::kCounter, help).index];
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->gauges[impl_->lookup(name, Impl::Kind::kGauge, help).index];
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_
      ->histograms[impl_->lookup(name, Impl::Kind::kHistogram, help).index];
}

CounterFamily& MetricsRegistry::counter_family(std::string_view name,
                                               std::string_view label_key,
                                               std::string_view help,
                                               std::size_t max_series) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->family_lookup(impl_->counter_families,
                              Impl::Kind::kCounterFamily, name, label_key,
                              help, max_series);
}

GaugeFamily& MetricsRegistry::gauge_family(std::string_view name,
                                           std::string_view label_key,
                                           std::string_view help,
                                           std::size_t max_series) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->family_lookup(impl_->gauge_families, Impl::Kind::kGaugeFamily,
                              name, label_key, help, max_series);
}

HistogramFamily& MetricsRegistry::histogram_family(std::string_view name,
                                                   std::string_view label_key,
                                                   std::string_view help,
                                                   std::size_t max_series) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->family_lookup(impl_->histogram_families,
                              Impl::Kind::kHistogramFamily, name, label_key,
                              help, max_series);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Refresh the process uptime first, so every exposition — Prometheus,
  // JSON, or a direct snapshot() consumer — carries a current value.
  {
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      impl_->start)
            .count();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl::Entry& entry = impl_->lookup(
        "uptime_seconds", Impl::Kind::kGauge,
        "seconds since the process metrics registry was created");
    impl_->gauges[entry.index].set(uptime);
  }
  MetricsSnapshot out;
  // Collect names and stable instrument addresses under the lock (deque
  // elements never move, but the containers themselves may grow under a
  // concurrent registration); aggregate the striped cells outside it.
  struct Named {
    std::string name;
    std::string help;
  };
  std::vector<std::pair<Named, const Counter*>> counters;
  std::vector<std::pair<Named, const Gauge*>> gauges;
  std::vector<std::pair<Named, const Histogram*>> histograms;
  std::vector<const CounterFamily*> counter_families;
  std::vector<const GaugeFamily*> gauge_families;
  std::vector<const HistogramFamily*> histogram_families;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    counters.reserve(impl_->counters.size());
    for (std::size_t i = 0; i < impl_->counters.size(); ++i) {
      counters.emplace_back(
          Named{impl_->counter_names[i], impl_->counter_helps[i]},
          &impl_->counters[i]);
    }
    gauges.reserve(impl_->gauges.size());
    for (std::size_t i = 0; i < impl_->gauges.size(); ++i) {
      gauges.emplace_back(Named{impl_->gauge_names[i], impl_->gauge_helps[i]},
                          &impl_->gauges[i]);
    }
    histograms.reserve(impl_->histograms.size());
    for (std::size_t i = 0; i < impl_->histograms.size(); ++i) {
      histograms.emplace_back(
          Named{impl_->histogram_names[i], impl_->histogram_helps[i]},
          &impl_->histograms[i]);
    }
    // Family addresses are deque-stable too; their per-series state is
    // guarded by each family's own lock, read outside this one.
    counter_families.reserve(impl_->counter_families.size());
    for (const CounterFamily& family : impl_->counter_families) {
      counter_families.push_back(&family);
    }
    gauge_families.reserve(impl_->gauge_families.size());
    for (const GaugeFamily& family : impl_->gauge_families) {
      gauge_families.push_back(&family);
    }
    histogram_families.reserve(impl_->histogram_families.size());
    for (const HistogramFamily& family : impl_->histogram_families) {
      histogram_families.push_back(&family);
    }
  }
  out.counters.reserve(counters.size());
  for (auto& [named, counter] : counters) {
    out.counters.push_back(
        {std::move(named.name), std::move(named.help), counter->value(), {},
         {}});
  }
  out.gauges.reserve(gauges.size());
  for (auto& [named, gauge] : gauges) {
    out.gauges.push_back(
        {std::move(named.name), std::move(named.help), gauge->value(), {},
         {}});
  }
  out.histograms.reserve(histograms.size());
  for (auto& [named, histogram] : histograms) {
    HistogramValue value;
    value.name = std::move(named.name);
    value.help = std::move(named.help);
    value.count = histogram->count();
    value.sum = histogram->sum();
    const auto counts = histogram->bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] > 0) {
        value.buckets.push_back({Histogram::bucket_upper_edge(b), counts[b]});
      }
    }
    out.histograms.push_back(std::move(value));
  }
  for (const CounterFamily* family : counter_families) {
    std::vector<std::pair<std::string, const Counter*>> series;
    family->collect(series);
    for (auto& [label, counter] : series) {
      CounterValue value;
      value.name = family->name();
      value.help = family->help();
      value.value = counter->value();
      value.label_key = family->label_key();
      value.label_value = std::move(label);
      out.counters.push_back(std::move(value));
    }
  }
  for (const GaugeFamily* family : gauge_families) {
    std::vector<std::pair<std::string, const Gauge*>> series;
    family->collect(series);
    for (auto& [label, gauge] : series) {
      GaugeValue value;
      value.name = family->name();
      value.help = family->help();
      value.value = gauge->value();
      value.label_key = family->label_key();
      value.label_value = std::move(label);
      out.gauges.push_back(std::move(value));
    }
  }
  for (const HistogramFamily* family : histogram_families) {
    std::vector<std::pair<std::string, const Histogram*>> series;
    family->collect(series);
    for (auto& [label, histogram] : series) {
      HistogramValue value;
      value.name = family->name();
      value.help = family->help();
      value.count = histogram->count();
      value.sum = histogram->sum();
      const auto counts = histogram->bucket_counts();
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] > 0) {
          value.buckets.push_back(
              {Histogram::bucket_upper_edge(b), counts[b]});
        }
      }
      value.label_key = family->label_key();
      value.label_value = std::move(label);
      out.histograms.push_back(std::move(value));
    }
  }
  const auto by_name = [](const auto& lhs, const auto& rhs) {
    if (lhs.name != rhs.name) return lhs.name < rhs.name;
    return lhs.label_value < rhs.label_value;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

MetricsSnapshot snapshot() { return MetricsRegistry::global().snapshot(); }

// --- Exposition -------------------------------------------------------------

namespace {

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

// The text format's spellings of the non-finite values (printf's "nan" and
// "-nan" are not among them; Prometheus' parser rejects "-nan").
std::string prometheus_double(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  std::string out;
  append_g17(out, value);
  return out;
}

std::string json_double(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

}  // namespace

namespace {

// HELP text is free-form but must stay on one line; escape per the
// exposition format (backslash and newline only).
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Label values additionally escape the double quote that delimits them.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void append_help(std::string& out, const std::string& name,
                 const std::string& help) {
  if (help.empty()) return;
  out += "# HELP " + name + " " + escape_help(help) + "\n";
}

// `{key="value"}` for a labeled series, empty for a plain one.  An extra
// label (`le` for histogram buckets) composes via the `extra` argument.
std::string label_set(const CounterValue& v) {
  if (v.label_key.empty()) return {};
  return "{" + sanitize(v.label_key) + "=\"" +
         escape_label_value(v.label_value) + "\"}";
}

std::string label_set(const GaugeValue& v) {
  if (v.label_key.empty()) return {};
  return "{" + sanitize(v.label_key) + "=\"" +
         escape_label_value(v.label_value) + "\"}";
}

std::string histogram_label_set(const HistogramValue& v,
                                const std::string& le) {
  std::string inner;
  if (!v.label_key.empty()) {
    inner = sanitize(v.label_key) + "=\"" +
            escape_label_value(v.label_value) + "\"";
  }
  if (!le.empty()) {
    if (!inner.empty()) inner += ",";
    inner += "le=\"" + le + "\"";
  }
  return inner.empty() ? std::string() : "{" + inner + "}";
}

// Emit HELP/TYPE once per metric name.  The snapshot is sorted by
// (name, label), so a family's series arrive consecutively.
void append_header(std::string& out, std::string* last_name,
                   const std::string& name, const std::string& help,
                   const char* type) {
  if (*last_name == name) return;
  *last_name = name;
  append_help(out, name, help);
  out += "# TYPE " + name + " " + type + "\n";
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_name;
  for (const auto& c : snapshot.counters) {
    const std::string name = sanitize(c.name) + "_total";
    append_header(out, &last_name, name, c.help, "counter");
    out += name + label_set(c) + " " + std::to_string(c.value) + "\n";
  }
  last_name.clear();
  for (const auto& g : snapshot.gauges) {
    const std::string name = sanitize(g.name);
    append_header(out, &last_name, name, g.help, "gauge");
    out += name + label_set(g) + " " + prometheus_double(g.value) + "\n";
  }
  last_name.clear();
  for (const auto& h : snapshot.histograms) {
    const std::string name = sanitize(h.name);
    append_header(out, &last_name, name, h.help, "histogram");
    std::uint64_t cumulative = 0;
    for (const auto& bucket : h.buckets) {
      cumulative += bucket.count;
      out += name + "_bucket" +
             histogram_label_set(h, prometheus_double(bucket.upper_edge)) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket" + histogram_label_set(h, "+Inf") + " " +
           std::to_string(h.count) + "\n";
    out += name + "_sum" + histogram_label_set(h, {}) + " " +
           prometheus_double(h.sum) + "\n";
    out += name + "_count" + histogram_label_set(h, {}) + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

namespace {

// Minimal JSON string escaping for metric names and label values.
std::string escape_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (uc < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", uc);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

template <typename Value>
void append_json_labels(std::string& out, const Value& v) {
  if (v.label_key.empty()) return;
  out += ", \"labels\": {\"" + escape_json(v.label_key) + "\": \"" +
         escape_json(v.label_value) + "\"}";
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + escape_json(c.name) + "\"";
    append_json_labels(out, c);
    out += ", \"value\": " + std::to_string(c.value) + "}";
  }
  out += "\n  ],\n  \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + escape_json(g.name) + "\"";
    append_json_labels(out, g);
    out += ", \"value\": " + json_double(g.value) + "}";
  }
  out += "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + escape_json(h.name) + "\"";
    append_json_labels(out, h);
    out += ", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_double(h.sum) + ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": " + json_double(h.buckets[b].upper_edge) +
             ", \"count\": " + std::to_string(h.buckets[b].count) + "}";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace sybiltd::obs
