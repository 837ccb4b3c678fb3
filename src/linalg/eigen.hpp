// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Used on the covariance matrices PCA works on (dimension = feature count
// or autoencoder latent width, up to 256 for the paper-size CND-IDS), where
// Jacobi is simple, numerically robust, and yields orthonormal eigenvectors.
#pragma once

#include "tensor/matrix.hpp"

namespace cnd::linalg {

struct EigenResult {
  /// Eigenvalues sorted descending.
  std::vector<double> values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix `a` (n x n). Throws if `a` is not
/// square or departs from symmetry by more than `sym_tol` (relative).
EigenResult eigen_symmetric(const Matrix& a, double sym_tol = 1e-8,
                            int max_sweeps = 100);

}  // namespace cnd::linalg
