// cnd-analyze-path: bench/bench_micro_substrate.cpp
// Two --dump-kernels cases, one per emitter form: a dump_matrix() call and
// a raw fprintf row.
#include <cstdio>

namespace cnd {

void dump_kernels(std::FILE* f, const Matrix& a, const Neighbours& nn) {
  std::size_t line = 0;
  dump_matrix("matmul", a);
  for (std::size_t i = 0; i < nn.size(); ++i)
    std::fprintf(f, "knn,%zu,%zu\n", line++, nn[i]);
}

}  // namespace cnd
