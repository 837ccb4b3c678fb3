#include "data/dataset.hpp"

#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::data {

std::size_t Dataset::n_attacks() const {
  std::size_t n = 0;
  for (int v : y) n += (v == 1);
  return n;
}

std::size_t Dataset::n_normals() const { return y.size() - n_attacks(); }

void Dataset::validate() const {
  CND_CHECK(y.size() == x.rows(), "Dataset: one label per row");
  CND_CHECK(attack_class.size() == x.rows(), "Dataset: one attack class per row");
  for (std::size_t i = 0; i < y.size(); ++i) {
    CND_CHECK(y[i] == 0 || y[i] == 1, "Dataset: labels are 0 or 1");
    if (y[i] == 0) {
      CND_CHECK(attack_class[i] == -1, "Dataset: normal rows carry class -1");
    } else {
      CND_CHECK(attack_class[i] >= 0, "Dataset: attack rows carry a class");
      CND_CHECK(static_cast<std::size_t>(attack_class[i]) < class_names.size(),
                "Dataset: attack class has a name");
    }
  }
}

Dataset Dataset::take(const std::vector<std::size_t>& idx) const {
  Dataset out;
  out.name = name;
  out.class_names = class_names;
  out.x = x.take_rows(idx);
  out.y.reserve(idx.size());
  out.attack_class.reserve(idx.size());
  for (std::size_t i : idx) {
    require(i < y.size(), "Dataset::take: index out of range");
    out.y.push_back(y[i]);
    out.attack_class.push_back(attack_class[i]);
  }
  return out;
}

}  // namespace cnd::data
