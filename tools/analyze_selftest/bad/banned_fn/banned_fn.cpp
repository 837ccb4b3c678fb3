// Fixture corpus (known-bad).
// cnd-analyze-expect: no-banned-fn
// cnd-analyze-path: src/io/banned_fn.cpp
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cnd {

int parse_and_format(char* dst, const char* src) {
  strcpy(dst, src);
  sprintf(dst, "%d", 42);
  return atoi(src);
}

}  // namespace cnd
