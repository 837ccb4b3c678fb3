// Minimal CSV I/O for datasets and result tables.
//
// Format for datasets: header row `f0,f1,...,label,attack_class`, label in
// {0,1}, attack_class an integer (-1 for normal). Used by the
// custom-dataset example and for exporting bench results.
#pragma once

#include <string>

#include "data/dataset.hpp"

namespace cnd::data {

/// Write a dataset (features + label + attack_class columns). Throws
/// std::invalid_argument naming the path when the file cannot be opened
/// or written in full (a full disk, say).
void save_csv(const Dataset& ds, const std::string& path);

/// Load a dataset written by save_csv (or hand-authored in that format).
/// Class names are synthesized as "class_<id>". Every row has exactly the
/// header's cell count, and every cell parses whole: features as numbers
/// (nan/inf included; serving alarms such flows), the label as 0 or 1, the
/// attack class as -1 on normal rows and in [0, 1023] on attack rows. Any
/// other row throws std::invalid_argument naming the file and line. One
/// trailing '\r' per line is dropped, so CRLF files load.
Dataset load_csv(const std::string& path, const std::string& name = "csv");

/// Write an arbitrary numeric table with a header, for bench outputs.
/// Fails as save_csv does.
void save_table_csv(const std::string& path,
                    const std::vector<std::string>& header,
                    const std::vector<std::vector<double>>& rows,
                    const std::vector<std::string>& row_labels = {});

}  // namespace cnd::data
