// cnd-analyze-path: src/ml/score.cpp
// cnd-analyze-expect: determinism-taint
// cnd-analyze-expect: no-clock
// Add-a-clock-call regression: the hot scoring root reaches a wall-clock
// read, so repeated runs produce different bytes.
namespace cnd::ml {

double now_ms() {
  return static_cast<double>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

// cnd-hot
double score(double x) { return x + now_ms(); }

}  // namespace cnd::ml
