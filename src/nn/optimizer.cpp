#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(double lr) : lr_(lr) {
  require(lr > 0.0, "Adam: lr must be > 0");
}

void Adam::step(std::vector<Param> params) {
  if (m_.empty()) {
    for (auto& p : params) {
      m_.emplace_back(p.value->rows(), p.value->cols());
      v_.emplace_back(p.value->rows(), p.value->cols());
    }
  }
  require(m_.size() == params.size(), "Adam: parameter list changed size");
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t k = 0; k < params.size(); ++k) {
    auto& p = params[k];
    CND_CHECK(p.value->same_shape(*p.grad), "Adam::step: gradient shape differs from its parameter");
    CND_DCHECK_ALL_FINITE(*p.grad, "Adam::step: non-finite gradient");
    require(m_[k].same_shape(*p.value), "Adam: parameter shape changed");
    for (std::size_t i = 0; i < p.value->rows(); ++i) {
      auto w = p.value->row(i);
      auto g = p.grad->row(i);
      auto m = m_[k].row(i);
      auto v = v_[k].row(i);
      for (std::size_t j = 0; j < p.value->cols(); ++j) {
        m[j] = kBeta1 * m[j] + (1.0 - kBeta1) * g[j];
        v[j] = kBeta2 * v[j] + (1.0 - kBeta2) * g[j] * g[j];
        const double mhat = m[j] / bc1;
        const double vhat = v[j] / bc2;
        w[j] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
      }
    }
    *p.grad *= 0.0;
  }
}

}  // namespace cnd::nn
