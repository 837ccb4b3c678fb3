#include "data/contamination.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/assert.hpp"

namespace cnd::data {

Matrix contaminate(const Matrix& clean, const Matrix& attacks, double frac,
                   Rng& rng, std::vector<std::size_t>* poisoned_rows) {
  require(frac >= 0.0 && frac < 1.0, "contaminate: frac out of [0,1)");
  require(!attacks.empty(), "contaminate: empty attack pool");
  require(clean.cols() == attacks.cols(), "contaminate: width mismatch");

  Matrix out = clean;
  const auto n_poison = static_cast<std::size_t>(
      std::floor(frac * static_cast<double>(clean.rows())));
  auto victims = rng.permutation(clean.rows());
  victims.resize(n_poison);
  for (std::size_t v : victims) {
    const auto a = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(attacks.rows()) - 1));
    out.set_row(v, attacks.row(a));
  }
  if (poisoned_rows) *poisoned_rows = std::move(victims);
  return out;
}

}  // namespace cnd::data
