// Client-side spans for the traced run.
//
// The benchmark wraps each public call it makes into the repository's
// layers in a Span. Spans are recorded on the client thread only, kept in
// memory, and written out when the run ends. With tracing off a Span reads
// no clock and records nothing, so the untraced run measures the program
// alone.
//
// A span's name is "<layer>.<call>"; its parent is the span open around it
// on the same thread; `unit` is the id of the window, batch or experience it
// belongs to. Self time is the span's duration minus the time its direct
// children cover (children on one thread never overlap).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace cnd::perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }

  /// Open a span under the innermost open span. Returns its index.
  std::size_t open(const char* name, std::uint64_t unit);
  void close(std::size_t index);
  /// Re-label an open or closed span (a call whose kind is known only
  /// after it returns, such as a submit that ran an adaptation round).
  void rename(std::size_t index, const char* name) { spans_[index].name = name; }

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name, over spans that started inside [from, to].
  std::map<std::string, Totals> totals(Clock::time_point from,
                                       Clock::time_point to) const;
  /// Mean self time of the spans called `name` in [from, to]; 0 if none.
  double mean_self_ms(const std::string& name, Clock::time_point from,
                      Clock::time_point to) const;
  /// Self time per layer (the name up to the first '.').
  std::map<std::string, double> layer_self_ms(Clock::time_point from,
                                              Clock::time_point to) const;
  /// Time covered by top-level spans that started inside [from, to].
  double top_level_ms(Clock::time_point from, Clock::time_point to) const;

  std::size_t size() const { return spans_.size(); }
  /// Measured cost of one open/close pair on this machine, in ns.
  static double span_cost_ns();

  /// One JSON object per span: name, unit, parent, start and end in ns
  /// from the first span.
  void write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t unit;
    std::size_t parent;
    Clock::time_point t0, t1;
  };
  std::vector<double> self_times() const;

  bool on_;
  std::vector<Record> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t unit = 0)
      : t_(t), index_(t.on() ? t.open(name, unit) : Tracer::kNone) {}
  ~Span() {
    if (index_ != Tracer::kNone) t_.close(index_);
  }
  void rename(const char* name) {
    if (index_ != Tracer::kNone) t_.rename(index_, name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::size_t index_;
};

}  // namespace cnd::perfbench
