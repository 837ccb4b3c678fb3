// Fixture corpus (known-bad).
// cnd-analyze-expect: no-unordered-iter
// cnd-analyze-path: src/io/unordered_iter.cpp
#include <string>
#include <unordered_map>
#include <vector>

namespace cnd {

// Iteration order of unordered containers is unspecified: rows written from
// this loop land in a different order across platforms/runs.
std::vector<std::string> emit_rows(const std::unordered_map<std::string, double>& scores) {
  std::vector<std::string> rows;
  for (const auto& [name, s] : scores) {
    rows.push_back(name + "," + std::to_string(s));
  }
  return rows;
}

}  // namespace cnd
