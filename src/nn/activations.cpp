#include "nn/activations.hpp"

#include <cmath>

#include "tensor/assert.hpp"

// Both activations are element-wise, so their _into overrides tolerate
// `&y == &x` / `&grad_in == &grad_out`: each output element depends only on
// the same-position input element (and the layer's own cache).

namespace cnd::nn {

void ReLU::forward_into(const Matrix& x, Matrix& y, bool train) {
  if (train) x_cache_ = x;
  y.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    auto yr = y.row(i);
    auto xr = x.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) yr[j] = xr[j] > 0.0 ? xr[j] : 0.0;
  }
}

void ReLU::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  require(grad_out.same_shape(x_cache_), "ReLU::backward: shape mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  grad_in.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_in.rows(); ++i) {
    auto gr = grad_in.row(i);
    auto go = grad_out.row(i);
    auto xr = x_cache_.row(i);
    for (std::size_t j = 0; j < grad_in.cols(); ++j)
      gr[j] = xr[j] <= 0.0 ? 0.0 : go[j];
  }
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

void Tanh::forward_into(const Matrix& x, Matrix& y, bool train) {
  y.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    auto yr = y.row(i);
    auto xr = x.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) yr[j] = std::tanh(xr[j]);
  }
  if (train) y_cache_ = y;
}

void Tanh::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  require(grad_out.same_shape(y_cache_), "Tanh::backward: shape mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  grad_in.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_in.rows(); ++i) {
    auto gr = grad_in.row(i);
    auto go = grad_out.row(i);
    auto yr = y_cache_.row(i);
    for (std::size_t j = 0; j < grad_in.cols(); ++j)
      gr[j] = go[j] * (1.0 - yr[j] * yr[j]);
  }
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace cnd::nn
