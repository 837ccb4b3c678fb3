#include "ml/ocsvm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/stats.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::ml {

namespace {

constexpr std::size_t kMaxIters = 20000;  ///< pairwise SMO updates.
constexpr double kTol = 1e-5;             ///< KKT violation tolerance.

}  // namespace

double OcSvm::kernel(std::span<const double> a, std::span<const double> b) const {
  return std::exp(-gamma_ * sq_dist(a, b));
}

void OcSvm::fit(const Matrix& x_full) {
  require(x_full.rows() >= 2, "OcSvm::fit: need at least 2 points");
  require(cfg_.nu > 0.0 && cfg_.nu <= 1.0, "OcSvm::fit: nu must be in (0, 1]");

  // Deterministic stride subsample to respect the kernel-matrix budget.
  Matrix x = x_full;
  if (x_full.rows() > cfg_.max_train) {
    std::vector<std::size_t> idx;
    const double stride =
        static_cast<double>(x_full.rows()) / static_cast<double>(cfg_.max_train);
    for (std::size_t i = 0; i < cfg_.max_train; ++i)
      idx.push_back(static_cast<std::size_t>(static_cast<double>(i) * stride));
    x = x_full.take_rows(idx);
  }
  const std::size_t n = x.rows();

  // sklearn "scale": 1 / (d * Var[all features]).
  double var = 0.0;
  auto mu = col_mean(x);
  auto sd = col_stddev(x, mu);
  for (double s : sd) var += s * s;
  var /= static_cast<double>(x.cols());
  gamma_ = 1.0 / (static_cast<double>(x.cols()) * std::max(var, 1e-12));

  // Dense kernel matrix. Row i fills (i, j>=i) and mirrors into (j, i);
  // every element is written by exactly one task, so rows parallelize.
  Matrix k(n, n);
  runtime::parallel_for(0, n, runtime::grain_for_cost(n * x.cols() / 2),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      k(i, i) = 1.0;
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = kernel(x.row(i), x.row(j));
        k(i, j) = v;
        k(j, i) = v;
      }
    }
  });

  // Feasible start: uniform alpha = 1/n (satisfies sum = 1, 0 <= a <= C
  // because C = 1/(nu*n) >= 1/n).
  const double c_up = 1.0 / (cfg_.nu * static_cast<double>(n));
  std::vector<double> alpha(n, 1.0 / static_cast<double>(n));

  // Gradient of 1/2 a^T K a is g = K a.
  std::vector<double> g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += k(i, j) * alpha[j];
    g[i] = s;
  }

  for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
    // Most-violating pair: move mass from the highest-gradient point that
    // can still give (alpha > 0) to the lowest-gradient point that can
    // still receive (alpha < C).
    std::size_t i_up = n, j_dn = n;
    double g_max = -std::numeric_limits<double>::infinity();
    double g_min = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] > 0.0 && g[t] > g_max) {
        g_max = g[t];
        i_up = t;
      }
      if (alpha[t] < c_up && g[t] < g_min) {
        g_min = g[t];
        j_dn = t;
      }
    }
    if (i_up == n || j_dn == n || g_max - g_min < kTol) break;

    const double eta = std::max(k(i_up, i_up) + k(j_dn, j_dn) - 2.0 * k(i_up, j_dn), 1e-12);
    // Transfer delta from i_up to j_dn.
    double delta = (g_max - g_min) / eta;
    delta = std::min(delta, alpha[i_up]);
    delta = std::min(delta, c_up - alpha[j_dn]);
    if (delta <= 0.0) break;

    alpha[i_up] -= delta;
    alpha[j_dn] += delta;
    for (std::size_t t = 0; t < n; ++t) g[t] += delta * (k(j_dn, t) - k(i_up, t));
  }

  // rho = decision value at free support vectors (0 < a < C): rho = g_i.
  double rho_sum = 0.0;
  std::size_t rho_cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-10 && alpha[i] < c_up - 1e-10) {
      rho_sum += g[i];
      ++rho_cnt;
    }
  }
  if (rho_cnt > 0) {
    rho_ = rho_sum / static_cast<double>(rho_cnt);
  } else {
    // All alphas at bounds; use midpoint of the violating interval.
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (alpha[i] > 1e-10) hi = std::max(hi, g[i]);
      if (alpha[i] < c_up - 1e-10) lo = std::min(lo, g[i]);
    }
    rho_ = 0.5 * (lo + hi);
  }

  // Keep only support vectors.
  std::vector<std::size_t> sv_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 1e-10) sv_idx.push_back(i);
  CND_CHECK(!sv_idx.empty(), "OcSvm::fit: no support vectors");
  sv_ = x.take_rows(sv_idx);
  alpha_.clear();
  for (std::size_t i : sv_idx) alpha_.push_back(alpha[i]);
}

std::vector<double> OcSvm::score(const Matrix& x) const {
  require(fitted(), "OcSvm::score: not fitted");
  require(x.cols() == sv_.cols(), "OcSvm::score: feature mismatch");
  std::vector<double> out(x.rows());
  runtime::parallel_for(0, x.rows(),
                        runtime::grain_for_cost(sv_.rows() * x.cols()),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double f = 0.0;
      auto q = x.row(i);
      for (std::size_t s = 0; s < sv_.rows(); ++s)
        f += alpha_[s] * kernel(q, sv_.row(s));
      out[i] = rho_ - f;
    }
  });
  return out;
}

}  // namespace cnd::ml
