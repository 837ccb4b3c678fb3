// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Used on the covariance matrices PCA works on (dimension = feature count
// or autoencoder latent width, up to 256 for the paper-size CND-IDS), where
// Jacobi is simple, numerically robust, and yields orthonormal eigenvectors.
//
// Layout. The sweeps run on raw row pointers, not Matrix::operator(). The
// working copy d keeps its rows at a padded stride of an odd number of
// 64-byte lines, so a rotation's column update, which touches one element
// in each of the n rows, does not map them all to the same cache sets.
// The eigenvector accumulator is kept transposed (row j = eigenvector j),
// so each rotation updates two contiguous rows of it; the result is
// transposed back once.
//
// Stop rule. The solve stops before a sweep when the off-diagonal norm is
// at most 1e-14 * max(1, max|a_ij|), and after a sweep that applies no
// rotation: such a sweep leaves d unchanged, so every later one would
// rotate nothing too. Both rules give the same bytes as running all
// max_sweeps sweeps.
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
