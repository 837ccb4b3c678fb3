#include "ml/hbos.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"

namespace cnd::ml {

namespace {

constexpr std::size_t kBins = 20;  ///< equal-width bins per feature.

}  // namespace

void Hbos::fit(const Matrix& x) {
  require(x.rows() >= 2, "Hbos::fit: need at least 2 rows");
  const std::size_t d = x.cols();
  lo_.assign(d, 0.0);
  width_.assign(d, 1.0);
  neglog_.assign(d, {});

  const double n = static_cast<double>(x.rows());
  for (std::size_t j = 0; j < d; ++j) {
    double mn = x(0, j), mx = x(0, j);
    for (std::size_t i = 1; i < x.rows(); ++i) {
      mn = std::min(mn, x(i, j));
      mx = std::max(mx, x(i, j));
    }
    lo_[j] = mn;
    width_[j] = std::max((mx - mn) / static_cast<double>(kBins), 1e-12);

    std::vector<double> counts(kBins, 0.0);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      auto b = static_cast<std::size_t>((x(i, j) - mn) / width_[j]);
      counts[std::min(b, kBins - 1)] += 1.0;
    }
    auto& nl = neglog_[j];
    nl.resize(kBins);
    for (std::size_t b = 0; b < kBins; ++b)
      nl[b] = -std::log(std::max(counts[b] / n, 0.5 / n));  // floor: half a count
  }
  // Out-of-range values are at most as likely as half a sample.
  empty_penalty_ = -std::log(0.5 / n);
}

std::vector<double> Hbos::score(const Matrix& x) const {
  require(fitted(), "Hbos::score: not fitted");
  require(x.cols() == lo_.size(), "Hbos::score: feature mismatch");
  std::vector<double> out(x.rows(), 0.0);
  runtime::parallel_for(0, x.rows(), runtime::grain_for_cost(x.cols()),
                        [&](std::size_t r_lo, std::size_t r_hi) {
    for (std::size_t i = r_lo; i < r_hi; ++i) {
      auto r = x.row(i);
      for (std::size_t j = 0; j < x.cols(); ++j) {
        const double pos = (r[j] - lo_[j]) / width_[j];
        if (pos < 0.0 || pos >= static_cast<double>(kBins)) {
          out[i] += empty_penalty_;
        } else {
          out[i] += neglog_[j][static_cast<std::size_t>(pos)];
        }
      }
    }
  });
  return out;
}

}  // namespace cnd::ml
