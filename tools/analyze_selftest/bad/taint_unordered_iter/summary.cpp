// cnd-analyze-path: src/eval/summary.cpp
// cnd-analyze-expect: determinism-taint
// cnd-analyze-expect: no-unordered-iter
// Iterating an unordered container in an output root: the row order is
// unspecified, so the written bytes are not stable.
namespace cnd::eval {

void write_summary(const Rows& rows) {
  std::unordered_map<int, double> agg;
  for (const Row& r : rows) agg[r.id] += r.value;
  for (const auto& [id, total] : agg) emit_row(id, total);
}

}  // namespace cnd::eval
