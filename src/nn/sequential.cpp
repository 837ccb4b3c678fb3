#include "nn/sequential.hpp"

#include "tensor/assert.hpp"

namespace cnd::nn {

Sequential::Sequential(const Sequential& o) {
  layers_.reserve(o.layers_.size());
  for (const auto& l : o.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& o) {
  if (this == &o) return *this;
  layers_.clear();
  layers_.reserve(o.layers_.size());
  for (const auto& l : o.layers_) layers_.push_back(l->clone());
  return *this;
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  require(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
}

// cnd-hot
void Sequential::forward_into(const Matrix& x, Matrix& y, bool train) {
  if (layers_.empty()) {
    y = x;
    return;
  }
  // Intermediates ping-pong between the two scratch slots; only the last
  // layer writes the caller's output, so `y` may alias `x`.
  const Matrix* in = &x;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    Matrix& out = scratch_[i % 2];
    layers_[i]->forward_into(*in, out, train);
    in = &out;
  }
  layers_.back()->forward_into(*in, y, train);
}

// cnd-hot
void Sequential::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  if (layers_.empty()) {
    grad_in = grad_out;
    return;
  }
  // Layer i's input gradient has the shape of layer i-1's output, which is
  // exactly what scratch_[(i-1) % 2] held during the forward pass — so the
  // backward chain reuses the same slots with zero reshaping. Layers own
  // whatever forward state they need (x_cache_/y_cache_), so clobbering the
  // forward intermediates here is safe.
  const Matrix* g = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    Matrix& out = scratch_[(i - 1) % 2];
    layers_[i]->backward_into(*g, out);
    g = &out;
  }
  layers_.front()->backward_into(*g, grad_in);
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (auto& l : layers_)
    for (auto p : l->params()) out.push_back(p);
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

}  // namespace cnd::nn
