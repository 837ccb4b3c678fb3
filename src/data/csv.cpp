#include "data/csv.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>

#include "tensor/assert.hpp"

namespace cnd::data {

void save_csv(const Dataset& ds, const std::string& path) {
  ds.validate();
  std::ofstream f(path);
  require(f.good(), "save_csv: cannot open " + path);
  for (std::size_t j = 0; j < ds.n_features(); ++j) f << "f" << j << ",";
  f << "label,attack_class\n";
  f.precision(10);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto r = ds.x.row(i);
    for (double v : r) f << v << ",";
    f << ds.y[i] << "," << ds.attack_class[i] << "\n";
  }
  f.close();  // the last buffered bytes are written here, so check after it
  require(!f.fail(), "save_csv: write failed for " + path);
}

namespace {

/// Largest attack class id load_csv accepts. A file names its classes only
/// by id, and one name is made per id up to the largest, so an unbounded id
/// would let one cell allocate without limit.
constexpr int kMaxAttackClass = 1023;

/// Drops one trailing '\r', so CRLF files load like LF ones.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Parses the whole of [lo, hi) as one T (double cells accept nan/inf). Any
/// other content — empty, trailing junk, a fraction in an integer cell, an
/// out-of-range integer — returns false.
template <typename T>
bool parse_cell(const char* lo, const char* hi, T& out) {
  const auto [end, ec] = std::from_chars(lo, hi, out);
  return ec == std::errc() && end == hi;
}

}  // namespace

Dataset load_csv(const std::string& path, const std::string& name) {
  std::ifstream f(path);
  require(f.good(), "load_csv: cannot open " + path);

  std::string line;
  require(static_cast<bool>(std::getline(f, line)), "load_csv: empty file");
  strip_cr(line);
  const auto n_cols = static_cast<std::size_t>(
      std::count(line.begin(), line.end(), ',') + 1);
  require(n_cols >= 3, "load_csv: need at least one feature + label + class");
  const std::size_t d = n_cols - 2;

  Dataset ds;
  ds.name = name;
  int max_class = -1;
  std::vector<double> features;
  for (std::size_t line_no = 2; std::getline(f, line); ++line_no) {
    strip_cr(line);
    if (line.empty()) continue;
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument("load_csv: " + path + ":" +
                                  std::to_string(line_no) + ": " + why);
    };
    const char* cell = line.data();
    const char* const end = cell + line.size();
    int label = 0, attack_class = 0;
    for (std::size_t j = 0; j < n_cols; ++j) {
      const char* comma = std::find(cell, end, ',');
      if (comma == end && j + 1 < n_cols)
        fail("short row: " + std::to_string(j + 1) + " of " +
             std::to_string(n_cols) + " cells");
      if (comma != end && j + 1 == n_cols)
        fail("more cells than the header's " + std::to_string(n_cols));
      double v = 0.0;
      const bool ok = j < d    ? parse_cell(cell, comma, v)
                      : j == d ? parse_cell(cell, comma, label)
                               : parse_cell(cell, comma, attack_class);
      if (!ok)
        fail("cell " + std::to_string(j + 1) + " '" + std::string(cell, comma) +
             (j < d ? "' is not a number" : "' is not a valid integer"));
      if (j < d) features.push_back(v);
      if (comma != end) cell = comma + 1;
    }
    if (label != 0 && label != 1)
      fail("label " + std::to_string(label) + " is not 0 or 1");
    if (label == 0 && attack_class != -1)
      fail("normal row with attack_class " + std::to_string(attack_class) +
           " (expected -1)");
    if (label == 1 && (attack_class < 0 || attack_class > kMaxAttackClass))
      fail("attack_class " + std::to_string(attack_class) + " outside [0, " +
           std::to_string(kMaxAttackClass) + "]");
    ds.y.push_back(label);
    ds.attack_class.push_back(attack_class);
    max_class = std::max(max_class, attack_class);
  }
  ds.x = Matrix(ds.y.size(), d);
  std::copy(features.begin(), features.end(), ds.x.data());
  for (int c = 0; c <= max_class; ++c)
    ds.class_names.push_back("class_" + std::to_string(c));
  ds.validate();
  return ds;
}

void save_table_csv(const std::string& path,
                    const std::vector<std::string>& header,
                    const std::vector<std::vector<double>>& rows,
                    const std::vector<std::string>& row_labels) {
  require(row_labels.empty() || row_labels.size() == rows.size(),
          "save_table_csv: row label count mismatch");
  std::ofstream f(path);
  require(f.good(), "save_table_csv: cannot open " + path);
  for (std::size_t j = 0; j < header.size(); ++j)
    f << header[j] << (j + 1 < header.size() ? "," : "\n");
  f.precision(8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!row_labels.empty()) f << row_labels[i] << ",";
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      f << rows[i][j] << (j + 1 < rows[i].size() ? "," : "");
    f << "\n";
  }
  f.close();
  require(!f.fail(), "save_table_csv: write failed for " + path);
}

}  // namespace cnd::data
