#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace cnd::perfbench {

namespace {

double ms(Tracer::Clock::time_point a, Tracer::Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool inside(Tracer::Clock::time_point t, Tracer::Clock::time_point from,
            Tracer::Clock::time_point to) {
  return t >= from && t <= to;
}

}  // namespace

std::size_t Tracer::open(const char* name, std::uint64_t unit) {
  const std::size_t parent = stack_.empty() ? kNone : stack_.back();
  spans_.push_back({name, unit, parent, Clock::now(), {}});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].t1 = Clock::now();
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("Tracer: spans closed out of order");
  stack_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = ms(spans_[i].t0, spans_[i].t1);
  for (const Record& r : spans_)
    if (r.parent != kNone) self[r.parent] -= ms(r.t0, r.t1);
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals(Clock::time_point from,
                                                     Clock::time_point to) const {
  const std::vector<double> self = self_times();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (!inside(r.t0, from, to)) continue;
    Totals& t = out[r.name];
    ++t.count;
    t.total_ms += ms(r.t0, r.t1);
    t.self_ms += self[i];
  }
  return out;
}

double Tracer::mean_self_ms(const std::string& name, Clock::time_point from,
                            Clock::time_point to) const {
  const auto all = totals(from, to);
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.self_ms / static_cast<double>(it->second.count);
}

std::map<std::string, double> Tracer::layer_self_ms(Clock::time_point from,
                                                    Clock::time_point to) const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : totals(from, to))
    out[name.substr(0, name.find('.'))] += t.self_ms;
  return out;
}

double Tracer::top_level_ms(Clock::time_point from, Clock::time_point to) const {
  double covered = 0.0;
  for (const Record& r : spans_)
    if (r.parent == kNone && inside(r.t0, from, to)) covered += ms(r.t0, r.t1);
  return covered;
}

double Tracer::span_cost_ns() {
  constexpr std::size_t kSpans = 200000;
  Tracer t(true);
  t.spans_.reserve(kSpans);
  t.stack_.reserve(4);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s(t, "calibration.span", i);
  }
  return ms(t0, Clock::now()) * 1e6 / static_cast<double>(kSpans);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("Tracer: cannot write " + path);
  const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_[0].t0;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"unit\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, r.name, static_cast<unsigned long long>(r.unit),
                 r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                 ns(r.t0), ns(r.t1));
  }
  std::fclose(f);
}

}  // namespace cnd::perfbench
