// Finite-difference audit of the hand-derived backprop (ISSUE 3).
//
// Every analytic gradient the training loop consumes — the autoencoder
// chain (Linear + activations through encoder and decoder), softmax
// cross-entropy, and the triplet margin loss — is compared entry-by-entry
// against a central finite difference of the scalar loss. These tests carry
// the `sanitize` ctest label so CI runs them in the hardened ASan+UBSan
// configuration: the audit loops also sweep every parameter element, which
// gives the sanitizers dense coverage of the nn read/write paths.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/autoencoder.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace cnd::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal(0.0, scale);
  return m;
}

/// Central-difference check of `analytic_grad` (dL/d entry of `value`)
/// against the scalar `loss_fn`, for every element of `value`.
void audit_matrix_grad(Matrix& value, const Matrix& analytic_grad,
                       const std::function<double()>& loss_fn,
                       const std::string& what) {
  ASSERT_TRUE(value.same_shape(analytic_grad)) << what;
  const double eps = 1e-5;
  for (std::size_t i = 0; i < value.rows(); ++i) {
    for (std::size_t j = 0; j < value.cols(); ++j) {
      const double orig = value(i, j);
      value(i, j) = orig + eps;
      const double fp = loss_fn();
      value(i, j) = orig - eps;
      const double fm = loss_fn();
      value(i, j) = orig;
      const double fd = (fp - fm) / (2.0 * eps);
      const double g = analytic_grad(i, j);
      EXPECT_NEAR(g, fd, 2e-6 + 1e-4 * std::abs(fd))
          << what << " entry (" << i << "," << j << ")";
    }
  }
}

TEST(GradAudit, AutoencoderReconstructionChain) {
  Rng rng(123);
  Autoencoder ae({.input_dim = 5, .hidden_dim = 6, .latent_dim = 3}, rng);
  const Matrix x = random_matrix(8, 5, rng);

  // Analytic pass: accumulate gradients for every parameter.
  ae.zero_grad();
  Matrix h = ae.encoder().forward(x, /*train=*/true);
  Matrix y = ae.decoder().forward(h, /*train=*/true);
  LossGrad lg = mse_loss(y, x);
  Matrix gh = ae.decoder().backward(lg.grad);
  ae.encoder().backward(gh);

  const auto loss_fn = [&] { return mse_loss(ae.reconstruct(x), x).loss; };
  std::size_t k = 0;
  for (Param p : ae.params()) {
    audit_matrix_grad(*p.value, *p.grad, loss_fn,
                      "autoencoder param " + std::to_string(k++));
  }
}

TEST(GradAudit, SoftmaxCrossEntropyThroughLinear) {
  Rng rng(7);
  Linear lin(4, 3, rng);
  const Matrix x = random_matrix(6, 4, rng);
  std::vector<std::size_t> labels(x.rows());
  for (auto& l : labels) l = static_cast<std::size_t>(rng.randint(0, 2));

  Matrix z = lin.forward(x, /*train=*/true);
  LossGrad lg = softmax_cross_entropy(z, labels);
  lin.backward(lg.grad);

  const auto loss_fn = [&] {
    return softmax_cross_entropy(lin.forward(x, /*train=*/false), labels).loss;
  };
  std::size_t k = 0;
  for (Param p : lin.params()) {
    audit_matrix_grad(*p.value, *p.grad, loss_fn,
                      "linear param " + std::to_string(k++));
  }
}

TEST(GradAudit, TripletMarginLossOnEmbeddings) {
  Rng data_rng(11);
  Matrix emb = random_matrix(10, 4, data_rng);
  std::vector<int> labels(emb.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 2 == 0 ? 0 : 1;

  // The loss samples triplets from the Rng; every evaluation must see the
  // same draws, so each call works on a fresh copy of the same base stream.
  const Rng base_rng(99);
  const double margin = 1.0;
  const std::size_t n_triplets = 32;

  Rng r0 = base_rng;
  const LossGrad lg = triplet_margin_loss(emb, labels, margin, r0, n_triplets);
  ASSERT_GT(lg.loss, 0.0) << "seed produced no active triplets; audit vacuous";

  const auto loss_fn = [&] {
    Rng r = base_rng;
    return triplet_margin_loss(emb, labels, margin, r, n_triplets).loss;
  };
  audit_matrix_grad(emb, lg.grad, loss_fn, "triplet embeddings");
}

TEST(GradAudit, MseLossGradientDirect) {
  Rng rng(5);
  Matrix pred = random_matrix(4, 3, rng);
  const Matrix target = random_matrix(4, 3, rng);
  const LossGrad lg = mse_loss(pred, target);
  const auto loss_fn = [&] { return mse_loss(pred, target).loss; };
  audit_matrix_grad(pred, lg.grad, loss_fn, "mse pred");
}

}  // namespace
}  // namespace cnd::nn
