// cnd-analyze-path: src/eval/report.cpp
// cnd-analyze-expect: determinism-taint
// cnd-analyze-expect: no-pointer-hash
// Hashing a pointer folds ASLR into the output — a CSV writer is an
// output root, so this taints the report bytes.
namespace cnd::eval {

void write_report(const double* row) {
  const unsigned long key = std::hash<const double*>{}(row);
  emit_cell(key);
}

}  // namespace cnd::eval
