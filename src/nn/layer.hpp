// Layer interface for the from-scratch neural network library.
//
// Training uses explicit reverse-mode: a training forward pass caches what
// the backward pass needs, and backward receives dL/d(output) and returns
// dL/d(input) while accumulating parameter gradients. Batches are Matrix
// rows. Every layer implements one compute path, forward_into /
// backward_into, writing into caller-owned outputs; forward / backward are
// allocating conveniences defined once on top of it.
#pragma once

#include <memory>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::nn {

/// A trainable parameter: the value and its accumulated gradient, both owned
/// by the layer. Adam mutates `value` and reads/zeroes `grad`.
struct Param {
  Matrix* value;
  Matrix* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass into a caller-provided output, resized in place (zero heap
  /// traffic at a steady batch shape). When `train` is true the layer caches
  /// activations for a subsequent backward; inference passes use
  /// train = false. Element-wise layers tolerate `&y == &x`; layers that
  /// cannot (e.g. Linear) reject aliasing with `require`.
  virtual void forward_into(const Matrix& x, Matrix& y, bool train) = 0;

  /// Backward pass for the most recent training forward: writes dL/d(input)
  /// into `grad_in` (resized in place) while accumulating parameter
  /// gradients.
  virtual void backward_into(const Matrix& grad_out, Matrix& grad_in) = 0;

  /// forward_into a fresh matrix.
  Matrix forward(const Matrix& x, bool train) {
    Matrix y;
    forward_into(x, y, train);
    return y;
  }

  /// backward_into a fresh matrix.
  Matrix backward(const Matrix& grad_out) {
    Matrix g;
    backward_into(grad_out, g);
    return g;
  }

  /// Trainable parameters (empty for activations).
  virtual std::vector<Param> params() { return {}; }

  /// Deep copy (used to snapshot past-experience models for the continual
  /// learning loss).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Zero all parameter gradients. The default builds the params() vector;
  /// hot layers override it to hit their gradient matrices directly so a
  /// steady-state training step stays allocation-free.
  virtual void zero_grad() {
    for (auto p : params()) *p.grad *= 0.0;
  }
};

}  // namespace cnd::nn
