// Fixture corpus: the inline escape hatch silences a named rule
// on the annotated line (or the line directly below the annotation).
// cnd-analyze-path: src/eval/allow_annotation.cpp
#include <chrono>

namespace cnd::eval {

double sanctioned_measurement() {
  const auto t0 = std::chrono::steady_clock::now();  // cnd-analyze: allow(no-clock)
  // cnd-analyze: allow(no-clock) — previous-line form
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Prose mentioning std::rand() or strcpy( in a comment is not a finding, and
// neither is the string literal below.
const char* kDoc = "never call sprintf( or srand( in this codebase";

}  // namespace cnd::eval
