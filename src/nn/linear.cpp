#include "nn/linear.hpp"

#include <cmath>

#include "tensor/assert.hpp"
#include "tensor/check.hpp"
#include "tensor/kernels.hpp"

namespace cnd::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : w_(in, out), b_(1, out), gw_(in, out), gb_(1, out) {
  require(in > 0 && out > 0, "Linear: zero-sized layer");
  const double bound = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t i = 0; i < in; ++i)
    for (std::size_t j = 0; j < out; ++j) w_(i, j) = rng.uniform(-bound, bound);
}

// cnd-hot
void Linear::forward_into(const Matrix& x, Matrix& y, bool train) {
  require(x.cols() == w_.rows(), "Linear::forward: input width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&y != &x, "Linear::forward_into: output aliases input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // vector copy-assignment reuses the cache's existing capacity, so at a
  // steady batch shape this caching copy performs no allocation.
  if (train) x_cache_ = x;
  matmul_into(y, x, w_);
  add_rowvec_inplace(y, b_.row(0));
}

// cnd-hot
void Linear::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  require(!x_cache_.empty(), "Linear::backward: no cached forward pass");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(grad_out.rows() == x_cache_.rows() && grad_out.cols() == w_.cols(),  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
          "Linear::backward: gradient shape mismatch");
  require(&grad_in != &grad_out, "Linear::backward_into: output aliases input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  CND_DCHECK_ALL_FINITE(grad_out, "Linear::backward: non-finite upstream gradient");
  matmul_at_add_into(gw_, x_cache_, grad_out);
  for (std::size_t i = 0; i < grad_out.rows(); ++i) {
    auto g = grad_out.row(i);
    auto gb = gb_.row(0);
    for (std::size_t j = 0; j < grad_out.cols(); ++j) gb[j] += g[j];
  }
  matmul_bt_into(grad_in, grad_out, w_);
}

std::vector<Param> Linear::params() { return {{&w_, &gw_}, {&b_, &gb_}}; }

void Linear::set_weights(const Matrix& w, const Matrix& b) {
  require(w.same_shape(w_) && b.same_shape(b_), "Linear::set_weights: shape mismatch");
  w_ = w;
  b_ = b;
}

std::unique_ptr<Layer> Linear::clone() const {
  auto c = std::make_unique<Linear>(*this);
  c->x_cache_ = Matrix();
  return c;
}

}  // namespace cnd::nn
