#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace cnd::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Shortest representation that round-trips a double through strtod.
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: empty bucket bounds");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument("Histogram: bucket bounds must be strictly increasing");
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t b = static_cast<std::size_t>(it - bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cum += bucket_count(i);
    if (cum >= target) return bounds_[i];
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& default_time_buckets_ms() {
  static const std::vector<double> buckets{0.1,  0.25, 0.5,  1.0,   2.5,   5.0,
                                           10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                                           1000.0, 2500.0, 5000.0, 10000.0};
  return buckets;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  runtime::MutexLock lk(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  runtime::MutexLock lk(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  runtime::MutexLock lk(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  return *it->second;
}

void MetricsRegistry::reset() {
  runtime::MutexLock lk(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  runtime::MutexLock lk(mutex_);
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  runtime::MutexLock lk(mutex_);
  std::vector<std::string> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  runtime::MutexLock lk(mutex_);
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(name);
  return out;
}

std::string MetricsRegistry::to_json_fields() const {
  runtime::MutexLock lk(mutex_);
  std::string out = "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + format_double(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"count\":" + std::to_string(h->count()) +
           ",\"sum\":" + format_double(h->sum()) + ",\"bounds\":[";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      if (i) out += ',';
      out += format_double(h->bounds()[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h->n_buckets(); ++i) {
      if (i) out += ',';
      out += std::to_string(h->bucket_count(i));
    }
    out += "]}";
  }
  out += '}';
  return out;
}

std::string MetricsRegistry::to_json() const { return '{' + to_json_fields() + '}'; }

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed:
  return *reg;  // instrumented code may run during static teardown.
}

}  // namespace cnd::obs
