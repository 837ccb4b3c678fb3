// cnd-analyze-path: src/ml/timed.cpp
// A telemetry helper vouched with a header `// cnd-det-ok(<reason>)`:
// descent stops at the barrier, so the hot root stays clean. The clock read
// itself still needs the tree-wide no-clock waiver outside src/obs.
namespace cnd::ml {

// cnd-det-ok(write-only telemetry — never feeds a result)
double now_ms() {
  return static_cast<double>(
      // cnd-analyze: allow(no-clock) — the telemetry surface under test
      std::chrono::steady_clock::now().time_since_epoch().count());
}

// cnd-hot
double score(double x) {
  record_latency(now_ms());
  return x * 2.0;
}

}  // namespace cnd::ml
