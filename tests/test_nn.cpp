// Unit tests for the NN library: layer semantics, finite-difference gradient
// checks, optimizer behaviour, and end-to-end training sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/autoencoder.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace cnd::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal(0.0, scale);
  return m;
}

/// Central-difference gradient check of a network trained with MSE loss:
/// verifies every parameter's analytic gradient.
void check_gradients(Sequential& net, const Matrix& x, const Matrix& target,
                     double tol = 1e-6) {
  // Analytic gradients.
  net.zero_grad();
  Matrix out = net.forward(x, true);
  LossGrad lg = mse_loss(out, target);
  net.backward(lg.grad);

  std::vector<Matrix> analytic;
  for (auto p : net.params()) analytic.push_back(*p.grad);

  const double h = 1e-6;
  auto params = net.params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix* w = params[k].value;
    for (std::size_t i = 0; i < w->rows(); ++i) {
      for (std::size_t j = 0; j < w->cols(); ++j) {
        const double orig = (*w)(i, j);
        (*w)(i, j) = orig + h;
        const double lp = mse_loss(net.forward(x, false), target).loss;
        (*w)(i, j) = orig - h;
        const double lm = mse_loss(net.forward(x, false), target).loss;
        (*w)(i, j) = orig;
        const double numeric = (lp - lm) / (2.0 * h);
        EXPECT_NEAR(analytic[k](i, j), numeric, tol)
            << "param " << k << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Linear, ForwardKnownValues) {
  Rng rng(1);
  Linear l(2, 1, rng);
  // Overwrite weights for a deterministic check: y = 2*x0 + 3*x1 + 1.
  auto params = l.params();
  (*params[0].value)(0, 0) = 2.0;
  (*params[0].value)(1, 0) = 3.0;
  (*params[1].value)(0, 0) = 1.0;
  Matrix x{{1, 1}, {2, 0}};
  Matrix y = l.forward(x, false);
  EXPECT_DOUBLE_EQ(y(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 5.0);
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  Sequential net;
  net.add(std::make_unique<Linear>(3, 4, rng));
  Matrix x = random_matrix(5, 3, rng);
  Matrix t = random_matrix(5, 4, rng);
  check_gradients(net, x, t);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  Rng rng(3);
  Linear l(2, 2, rng);
  EXPECT_THROW(l.backward(Matrix(1, 2)), std::invalid_argument);
}

TEST(Activations, ReluForward) {
  ReLU relu;
  Matrix x{{-1, 0, 2}};
  Matrix y = relu.forward(x, false);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_EQ(y(0, 2), 2.0);
}

TEST(Activations, TanhRange) {
  Tanh th;
  Matrix x{{-100, 0, 100}};
  Matrix yt = th.forward(x, false);
  EXPECT_NEAR(yt(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(yt(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(yt(0, 2), 1.0, 1e-12);
}

TEST(Activations, ReluNetworkGradientCheck) {
  Rng rng(4);
  Sequential net;
  net.add(std::make_unique<Linear>(3, 8, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Linear>(8, 2, rng));
  Matrix x = random_matrix(6, 3, rng);
  Matrix t = random_matrix(6, 2, rng);
  check_gradients(net, x, t);
}

TEST(Activations, TanhNetworkGradientCheck) {
  Rng rng(5);
  Sequential net;
  net.add(std::make_unique<Linear>(2, 5, rng));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Linear>(5, 2, rng));
  Matrix x = random_matrix(4, 2, rng);
  Matrix t = random_matrix(4, 2, rng, 0.3);
  check_gradients(net, x, t, 1e-5);
}

TEST(Sequential, DeepCopyIsIndependent) {
  Rng rng(6);
  Sequential net;
  net.add(std::make_unique<Linear>(2, 2, rng));
  Sequential copy = net;
  Matrix x{{1, 1}};
  Matrix y0 = net.forward(x, false);

  // Mutate the original; the copy must not change.
  auto p = net.params();
  (*p[0].value)(0, 0) += 10.0;
  Matrix y_changed = net.forward(x, false);
  Matrix y_copy = copy.forward(x, false);
  EXPECT_NE(y_changed(0, 0), y0(0, 0));
  EXPECT_DOUBLE_EQ(y_copy(0, 0), y0(0, 0));
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Rng rng(8);
  Sequential net;
  net.add(std::make_unique<Linear>(1, 1, rng));
  Adam opt(0.05);
  Matrix x{{1}};
  Matrix t{{3}};
  for (int i = 0; i < 500; ++i) {
    net.zero_grad();
    Matrix out = net.forward(x, true);
    LossGrad lg = mse_loss(out, t);
    net.backward(lg.grad);
    opt.step(net.params());
    // step() leaves every gradient zeroed.
    for (Param p : net.params()) EXPECT_EQ((*p.grad)(0, 0), 0.0);
  }
  Matrix out = net.forward(x, false);
  EXPECT_NEAR(out(0, 0), 3.0, 1e-3);
}

TEST(Autoencoder, ShapesAndRoundtrip) {
  Rng rng(9);
  Autoencoder ae({.input_dim = 10, .hidden_dim = 16, .latent_dim = 4}, rng);
  Matrix x = random_matrix(7, 10, rng);
  Matrix h = ae.encode(x);
  EXPECT_EQ(h.rows(), 7u);
  EXPECT_EQ(h.cols(), 4u);
  Matrix xhat = ae.decode(h);
  EXPECT_EQ(xhat.cols(), 10u);
  EXPECT_EQ(ae.params().size(), 8u);  // 4 Linear layers x (W, b)
}

TEST(Autoencoder, TrainingReducesReconstructionError) {
  Rng rng(10);
  Autoencoder ae({.input_dim = 6, .hidden_dim = 32, .latent_dim = 3}, rng);
  // Low-rank data is compressible to 3 dims.
  Matrix basis = random_matrix(3, 6, rng);
  Matrix z = random_matrix(64, 3, rng);
  Matrix x = matmul(z, basis);

  const double before = mse(ae.reconstruct(x), x);
  Adam opt(1e-2);
  for (int epoch = 0; epoch < 200; ++epoch) {
    ae.zero_grad();
    Matrix h = ae.encoder().forward(x, true);
    Matrix xhat = ae.decoder().forward(h, true);
    LossGrad lg = mse_loss(xhat, x);
    Matrix gh = ae.decoder().backward(lg.grad);
    ae.encoder().backward(gh);
    opt.step(ae.params());
  }
  const double after = mse(ae.reconstruct(x), x);
  EXPECT_LT(after, before * 0.1);
}

TEST(MlpClassifier, LearnsLinearlySeparableData) {
  Rng rng(11);
  const std::size_t n = 200;
  Matrix x(n, 2);
  std::vector<std::size_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    x(i, 0) = rng.normal(pos ? 2.0 : -2.0, 0.5);
    x(i, 1) = rng.normal(pos ? 2.0 : -2.0, 0.5);
    y[i] = pos ? 1 : 0;
  }
  MlpClassifier clf({.input_dim = 2, .hidden_dim = 16, .n_classes = 2,
                     .epochs = 30, .batch_size = 32, .lr = 1e-2},
                    rng);
  clf.fit(x, y);
  auto pred = clf.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) correct += (pred[i] == y[i]);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(n), 0.95);

  auto proba = clf.predict_proba1(x);
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace cnd::nn
