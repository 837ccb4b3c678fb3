// Contamination injection for failure-mode experiments.
//
// The paper's protocol assumes N_c is perfectly clean. Real operators
// vouching for "normal" windows are sometimes wrong; contaminate()
// deliberately poisons a clean matrix with attack rows so tests and benches
// can measure how gracefully each method degrades.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::data {

/// Replace a `frac` fraction of rows in `clean` with rows drawn uniformly
/// from `attacks`. Returns the contaminated copy; `poisoned_rows` (optional)
/// receives the replaced indices.
Matrix contaminate(const Matrix& clean, const Matrix& attacks, double frac,
                   Rng& rng, std::vector<std::size_t>* poisoned_rows = nullptr);

}  // namespace cnd::data
