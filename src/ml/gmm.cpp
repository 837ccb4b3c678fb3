#include "ml/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/assert.hpp"

namespace cnd::ml {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;
constexpr std::size_t kMaxIters = 100;  ///< EM iterations.
constexpr double kTol = 1e-5;       ///< stop when mean log-likelihood improves less.
constexpr double kRegCovar = 1e-6;  ///< variance floor, keeps EM from collapsing.

/// log N(x | mu, diag(var)) for one row.
double log_gauss(std::span<const double> x, std::span<const double> mu,
                 std::span<const double> var) {
  double s = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double d = x[j] - mu[j];
    s += -0.5 * (kLog2Pi + std::log(var[j]) + d * d / var[j]);
  }
  return s;
}

double logsumexp(std::span<const double> v) {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : v) m = std::max(m, x);
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

}  // namespace

void Gmm::fit(const Matrix& x, Rng& rng) {
  require(x.rows() >= cfg_.n_components * 2, "Gmm::fit: too few rows");
  require(cfg_.n_components >= 1, "Gmm::fit: need at least one component");
  const std::size_t n = x.rows(), d = x.cols(), k = cfg_.n_components;

  // Seed means with k-means++-style spread; variances at the global scale.
  auto mu0 = col_mean(x);
  auto sd0 = col_stddev(x, mu0);
  means_ = Matrix(k, d);
  vars_ = Matrix(k, d);
  weights_.assign(k, 1.0 / static_cast<double>(k));
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  const auto first = static_cast<std::size_t>(
      rng.randint(0, static_cast<std::int64_t>(n) - 1));
  means_.set_row(0, x.row(first));
  for (std::size_t c = 1; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i)
      d2[i] = std::min(d2[i], sq_dist(x.row(i), means_.row(c - 1)));
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t chosen = n - 1;
    double r = rng.uniform(0.0, std::max(total, 1e-300));
    for (std::size_t i = 0; i < n; ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    means_.set_row(c, x.row(chosen));
  }
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < d; ++j)
      vars_(c, j) = std::max(sd0[j] * sd0[j], kRegCovar);

  // EM.
  Matrix resp(n, k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
    // E-step.
    double ll = 0.0;
    std::vector<double> logp(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k; ++c)
        logp[c] = std::log(std::max(weights_[c], 1e-300)) +
                  log_gauss(x.row(i), means_.row(c), vars_.row(c));
      const double lse = logsumexp(logp);
      ll += lse;
      for (std::size_t c = 0; c < k; ++c) resp(i, c) = std::exp(logp[c] - lse);
    }
    ll /= static_cast<double>(n);

    // M-step.
    for (std::size_t c = 0; c < k; ++c) {
      double nk = 0.0;
      for (std::size_t i = 0; i < n; ++i) nk += resp(i, c);
      nk = std::max(nk, 1e-10);
      weights_[c] = nk / static_cast<double>(n);
      for (std::size_t j = 0; j < d; ++j) {
        double m = 0.0;
        for (std::size_t i = 0; i < n; ++i) m += resp(i, c) * x(i, j);
        means_(c, j) = m / nk;
      }
      for (std::size_t j = 0; j < d; ++j) {
        double v = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = x(i, j) - means_(c, j);
          v += resp(i, c) * diff * diff;
        }
        vars_(c, j) = std::max(v / nk, kRegCovar);
      }
    }

    if (ll - prev_ll < kTol && iter > 0) break;
    prev_ll = ll;
  }
}

std::vector<double> Gmm::log_likelihood(const Matrix& x) const {
  require(fitted(), "Gmm: not fitted");
  require(x.cols() == means_.cols(), "Gmm: feature mismatch");
  std::vector<double> out(x.rows());
  std::vector<double> logp(weights_.size());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < weights_.size(); ++c)
      logp[c] = std::log(std::max(weights_[c], 1e-300)) +
                log_gauss(x.row(i), means_.row(c), vars_.row(c));
    out[i] = logsumexp(logp);
  }
  return out;
}

std::vector<double> Gmm::score(const Matrix& x) const {
  auto ll = log_likelihood(x);
  for (double& v : ll) v = -v;
  return ll;
}

}  // namespace cnd::ml
