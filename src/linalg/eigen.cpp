#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::linalg {

EigenResult eigen_symmetric(const Matrix& a, double sym_tol, int max_sweeps) {
  require(a.rows() == a.cols(), "eigen_symmetric: matrix must be square");
  const std::size_t n = a.rows();
  require(n > 0, "eigen_symmetric: empty matrix");
  // Every index below is < n by loop construction, so the shape checks above
  // stand in for per-element bounds checks.

  // Symmetry check, relative to the matrix scale.
  const double* const ad = a.data();
  double scale = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) scale = std::max(scale, std::abs(ad[i]));
  const double tol = sym_tol * std::max(scale, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      require(std::abs(ad[i * n + j] - ad[j * n + i]) <= tol,
              "eigen_symmetric: matrix not symmetric");

  // Working copy, driven to diagonal. Its rows are `ld` doubles apart, an odd
  // number of 64-byte lines: at n = 256 the unpadded stride (32 lines) maps
  // all n elements of a column to two L1 sets, and the column update ran
  // about 2x slower (4-vCPU Intel Xeon VM, GCC 12 -O3).
  const std::size_t ld = (n + 7) / 16 * 16 + 8;
  Matrix d(n, ld);
  double* const dd = d.data();
  for (std::size_t i = 0; i < n; ++i) std::copy_n(ad + i * n, n, dd + i * ld);
  Matrix vt = identity(n);  // Accumulated rotations, transposed: row j = eigenvector j.
  double* const vd = vt.data();

  const double conv_eps = 1e-14 * std::max(scale, 1.0);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double* const dp = dd + p * ld;
      for (std::size_t q = p + 1; q < n; ++q) off += dp[q] * dp[q];
    }
    if (std::sqrt(off) <= conv_eps) break;

    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      double* const dp = dd + p * ld;
      double* const vp = vd + p * n;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* const dq = dd + q * ld;
        double* const vq = vd + q * n;
        const double apq = dp[q];
        if (std::abs(apq) <= conv_eps) continue;
        rotated = true;
        const double app = dp[p];
        const double aqq = dq[q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply rotation J(p,q,theta) on both sides of d: d = J^T d J.
        // Columns p and q first (stride ld), then rows p and q (contiguous).
        for (std::size_t k = 0; k < n; ++k) {
          double* const dk = dd + k * ld;
          const double dkp = dk[p];
          const double dkq = dk[q];
          dk[p] = c * dkp - s * dkq;
          dk[q] = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = dp[k];
          const double dqk = dq[k];
          dp[k] = c * dpk - s * dqk;
          dq[k] = s * dpk + c * dqk;
        }
        // Accumulate eigenvectors, v = v J, on rows p and q of v^T.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
    // A sweep that rotates nothing leaves d unchanged, so every later sweep
    // would skip the same pairs.
    if (!rotated) break;
  }

  // Sort eigenpairs descending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = dd[i * ld + i];
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] > diag[y]; });

  EigenResult res;
  res.values.resize(n);
  res.vectors = Matrix(n, n);
  double* const out = res.vectors.data();
  for (std::size_t j = 0; j < n; ++j) {
    res.values[j] = diag[order[j]];
    const double* const vj = vd + order[j] * n;
    for (std::size_t i = 0; i < n; ++i) out[i * n + j] = vj[i];
  }
  // A non-finite input slips past the symmetry check (NaN compares false);
  // catch it where the rotation sweeps would have amplified it.
  CND_DCHECK_ALL_FINITE(std::span<const double>(res.values),
                        "eigen_symmetric: non-finite eigenvalue");
  CND_DCHECK_ALL_FINITE(res.vectors, "eigen_symmetric: non-finite eigenvector");
  return res;
}

}  // namespace cnd::linalg
