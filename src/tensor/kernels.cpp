#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd {

using kernels::kKc;
using kernels::kMr;
using kernels::kNr;

namespace {

// The one multiply-add every kernel in this TU is built from. Written
// explicitly — NOT left to -ffp-contract — because the compiler contracts
// per loop, not per program: GCC's unroller happily emits fused FMA for one
// copy of an accumulation and separate mul+add for another, which breaks
// blocked-vs-reference bit-identity. With the op spelled out (and
// -ffp-contract=off pinned on this TU, see src/CMakeLists.txt) every
// kernel, every reference kernel, and row_sq_norms perform the identical
// operation: a true fused multiply-add when the kernel ISA has hardware FMA,
// plain mul+add otherwise. One definition per binary; all build types
// (Release / ASan / TSan) configure the same CND_KERNEL_MARCH, so
// cross-build CSV diffs stay byte-clean.
#if defined(__FMA__)
inline double madd(double a, double b, double c) { return std::fma(a, b, c); }
#else
inline double madd(double a, double b, double c) { return a * b + c; }
#endif

// The float32 sibling, used only by the IVF probe-scan kernels at the bottom
// of this file. Same rationale: spell the contraction out so the scan's
// rounding pattern is one fixed choice per binary, never the unroller's.
#if defined(__FMA__)
// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
inline float maddf(float a, float b, float c) { return std::fmaf(a, b, c); }
#else
// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
inline float maddf(float a, float b, float c) { return a * b + c; }
#endif

}  // namespace

// cnd-alloc-ok(slot pool: grows on first use of a slot/shape, then reuses storage)
Matrix& Workspace::mat(std::size_t slot, std::size_t rows, std::size_t cols) {
  if (slot >= mats_.size()) mats_.resize(slot + 1);
  mats_[slot].resize(rows, cols);
  return mats_[slot];
}

// cnd-alloc-ok(slot pool: grows on first use of a slot/shape, then reuses storage)
std::vector<double>& Workspace::vec(std::size_t slot, std::size_t size) {
  if (slot >= vecs_.size()) vecs_.resize(slot + 1);
  vecs_[slot].resize(size);
  return vecs_[slot];
}

namespace {

// ---- C = A * B tiles -------------------------------------------------------
//
// Each tile holds an mr x nr block of C in registers and streams kc p-steps
// of the current p-panel: `ap` is A's row i0 and `bp` B's row p0, both
// already offset to the panel's first p. `init_zero` distinguishes the first
// p-panel (start each element's chain at 0.0) from later panels (resume the
// chain from C). Per element the adds are applied for p strictly ascending —
// the canonical order — so tiling and the C round-trips between panels never
// change a rounding step. A `padded` B panel holds kNr columns, those past nr
// zero-filled, so a narrow tile still takes the full kMr x kNr path; the
// padded columns are computed and discarded, never stored.

inline void mm_tile(double* cp, std::size_t ldc, const double* ap,
                    std::size_t lda, const double* bp, std::size_t ldb,
                    std::size_t mr, std::size_t nr, std::size_t kc,
                    bool init_zero, bool padded) {
  double acc[kMr][kNr] = {};
  if (!init_zero)
    for (std::size_t ii = 0; ii < mr; ++ii)
      for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] = cp[ii * ldc + jj];
  if (mr == kMr && (nr == kNr || padded)) {
    for (std::size_t p = 0; p < kc; ++p, bp += ldb) {
      const double a0 = ap[0 * lda + p];
      const double a1 = ap[1 * lda + p];
      const double a2 = ap[2 * lda + p];
      const double a3 = ap[3 * lda + p];
      for (std::size_t jj = 0; jj < kNr; ++jj) {
        const double bv = bp[jj];
        acc[0][jj] = madd(a0, bv, acc[0][jj]);
        acc[1][jj] = madd(a1, bv, acc[1][jj]);
        acc[2][jj] = madd(a2, bv, acc[2][jj]);
        acc[3][jj] = madd(a3, bv, acc[3][jj]);
      }
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p, bp += ldb) {
      for (std::size_t ii = 0; ii < mr; ++ii) {
        const double av = ap[ii * lda + p];
        for (std::size_t jj = 0; jj < nr; ++jj)
          acc[ii][jj] = madd(av, bp[jj], acc[ii][jj]);
      }
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii)
    for (std::size_t jj = 0; jj < nr; ++jj) cp[ii * ldc + jj] = acc[ii][jj];
}

// C rows [lo, hi) of A(m x k) * B(k x n); C/A pointers are to row 0.
void mm_rows(double* c, const double* a, const double* b, std::size_t lo,
             std::size_t hi, std::size_t k, std::size_t n) {
  for (std::size_t i0 = lo; i0 < hi; i0 += kMr) {
    const std::size_t mr = std::min(kMr, hi - i0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t nr = std::min(kNr, n - j0);
        mm_tile(c + i0 * n + j0, n, a + i0 * k + p0, k, b + p0 * n + j0, n,
                mr, nr, kc, /*init_zero=*/p0 == 0, /*padded=*/false);
      }
    }
  }
}

// ---- C = A^T * B tiles -----------------------------------------------------
//
// A is k x m; output row i is A column i, contiguous across ii for a fixed p.

inline void at_tile(double* cp, std::size_t n, const double* ap, std::size_t m,
                    const double* bp, std::size_t mr, std::size_t nr,
                    std::size_t p0, std::size_t kc, bool init_zero) {
  double acc[kMr][kNr];
  for (std::size_t ii = 0; ii < mr; ++ii)
    for (std::size_t jj = 0; jj < nr; ++jj)
      acc[ii][jj] = init_zero ? 0.0 : cp[ii * n + jj];
  const double* app = ap + p0 * m;
  const double* bpp = bp + p0 * n;
  if (mr == kMr && nr == kNr) {
    for (std::size_t p = p0; p < p0 + kc; ++p, app += m, bpp += n) {
      const double a0 = app[0];
      const double a1 = app[1];
      const double a2 = app[2];
      const double a3 = app[3];
      for (std::size_t jj = 0; jj < kNr; ++jj) {
        const double bv = bpp[jj];
        acc[0][jj] = madd(a0, bv, acc[0][jj]);
        acc[1][jj] = madd(a1, bv, acc[1][jj]);
        acc[2][jj] = madd(a2, bv, acc[2][jj]);
        acc[3][jj] = madd(a3, bv, acc[3][jj]);
      }
    }
  } else {
    for (std::size_t p = p0; p < p0 + kc; ++p, app += m, bpp += n) {
      for (std::size_t ii = 0; ii < mr; ++ii) {
        const double av = app[ii];
        for (std::size_t jj = 0; jj < nr; ++jj)
          acc[ii][jj] = madd(av, bpp[jj], acc[ii][jj]);
      }
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii)
    for (std::size_t jj = 0; jj < nr; ++jj) cp[ii * n + jj] = acc[ii][jj];
}

// C rows [lo, hi) of A(k x m)^T * B(k x n). `accumulate` continues each
// element's chain from the value already in C (the gradient kernel).
void at_rows(double* c, const double* a, const double* b, std::size_t lo,
             std::size_t hi, std::size_t k, std::size_t m, std::size_t n,
             bool accumulate) {
  for (std::size_t i0 = lo; i0 < hi; i0 += kMr) {
    const std::size_t mr = std::min(kMr, hi - i0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t nr = std::min(kNr, n - j0);
        at_tile(c + i0 * n + j0, n, a + i0, m, b + j0, mr, nr, p0, kc,
                /*init_zero=*/p0 == 0 && !accumulate);
      }
    }
  }
}

// ---- C = A * B^T -----------------------------------------------------------
//
// Runs on the C = A * B tile. Each kc x kNr panel of B^T is packed once into
// a stack buffer, columns past the last B row zero-filled, and every row tile
// in [lo, hi) consumes it before the next panel is packed. Packing reorders
// loads only: per element the panels still arrive p-ascending.

// C rows [lo, hi) of A(m x k) * B(nb x k)^T; C is m x nb.
void bt_rows(double* c, const double* a, const double* b, std::size_t lo,
             std::size_t hi, std::size_t k, std::size_t nb) {
  // 16 KB, left uninitialized: the packing below writes every slot a tile
  // reads.
  alignas(64) double panel[kKc * kNr];
  for (std::size_t j0 = 0; j0 < nb; j0 += kNr) {
    const std::size_t nr = std::min(kNr, nb - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      const double* bp = b + j0 * k + p0;
      for (std::size_t p = 0; p < kc; ++p)
        for (std::size_t jj = 0; jj < kNr; ++jj)
          panel[p * kNr + jj] = jj < nr ? bp[jj * k + p] : 0.0;
      for (std::size_t i0 = lo; i0 < hi; i0 += kMr)
        mm_tile(c + i0 * nb + j0, nb, a + i0 * k + p0, k, panel, kNr,
                std::min(kMr, hi - i0), nr, kc, /*init_zero=*/p0 == 0,
                /*padded=*/true);
    }
  }
}

void fill_zero_rows(Matrix& c, std::size_t lo, std::size_t hi) {
  if (c.cols() == 0) return;
  std::fill(c.data() + lo * c.cols(), c.data() + hi * c.cols(), 0.0);
}

}  // namespace

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "matmul_into: inner dimension mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&c != &a && &c != &b, "matmul_into: output aliases an input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // Only the rhs (the weights) is checked: a scored batch may carry
  // non-finite features by design, and the fail-closed verdicts
  // (eval::verdicts_into) alarm those flows after scoring.
  CND_DCHECK_ALL_FINITE(b, "matmul_into: rhs has non-finite elements");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {  // No p-panel ever runs; the product is all zeros.
    fill_zero_rows(c, 0, m);
    return;
  }
  runtime::parallel_for(0, m, runtime::grain_for_cost(k * n),
                        [&](std::size_t lo, std::size_t hi) {
    mm_rows(c.data(), a.data(), b.data(), lo, hi, k, n);
  });
}

void matmul_bt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_bt_into: inner dimension mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&c != &a && &c != &b, "matmul_bt_into: output aliases an input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // rhs only, as in matmul_into: the lhs may hold a scored batch's latents.
  CND_DCHECK_ALL_FINITE(b, "matmul_bt_into: rhs has non-finite elements");
  const std::size_t m = a.rows(), k = a.cols(), nb = b.rows();
  c.resize(m, nb);
  if (m == 0 || nb == 0) return;
  if (k == 0) {
    fill_zero_rows(c, 0, m);
    return;
  }
  runtime::parallel_for(0, m, runtime::grain_for_cost(nb * k),
                        [&](std::size_t lo, std::size_t hi) {
    bt_rows(c.data(), a.data(), b.data(), lo, hi, k, nb);
  });
}

void matmul_at_into(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_into: inner dimension mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&c != &a && &c != &b, "matmul_at_into: output aliases an input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  CND_DCHECK_ALL_FINITE(a, "matmul_at_into: lhs has non-finite elements");
  CND_DCHECK_ALL_FINITE(b, "matmul_at_into: rhs has non-finite elements");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  c.resize(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    fill_zero_rows(c, 0, m);
    return;
  }
  runtime::parallel_for(0, m, runtime::grain_for_cost(k * n),
                        [&](std::size_t lo, std::size_t hi) {
    at_rows(c.data(), a.data(), b.data(), lo, hi, k, m, n, /*accumulate=*/false);
  });
}

void matmul_at_add_into(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_add_into: inner dimension mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(c.rows() == a.cols() && c.cols() == b.cols(),  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
          "matmul_at_add_into: output shape mismatch");
  require(&c != &a && &c != &b, "matmul_at_add_into: output aliases an input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  CND_DCHECK_ALL_FINITE(a, "matmul_at_add_into: lhs has non-finite elements");
  CND_DCHECK_ALL_FINITE(b, "matmul_at_add_into: rhs has non-finite elements");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || n == 0 || k == 0) return;
  runtime::parallel_for(0, m, runtime::grain_for_cost(k * n),
                        [&](std::size_t lo, std::size_t hi) {
    at_rows(c.data(), a.data(), b.data(), lo, hi, k, m, n, /*accumulate=*/true);
  });
}

void matmul_bt_rows_into(Matrix& c, const Matrix& a, std::size_t lo,
                         std::size_t hi, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_bt_rows_into: inner dimension mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(lo <= hi && hi <= a.rows(), "matmul_bt_rows_into: row range out of bounds");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&c != &a && &c != &b, "matmul_bt_rows_into: output aliases an input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  const std::size_t k = a.cols(), nb = b.rows();
  c.resize(hi - lo, nb);
  if (hi == lo || nb == 0) return;
  if (k == 0) {
    fill_zero_rows(c, 0, hi - lo);
    return;
  }
  bt_rows(c.data(), a.data() + lo * k, b.data(), 0, hi - lo, k, nb);
}

void sub_rowvec_into(Matrix& out, const Matrix& a, std::span<const double> v) {
  require(v.size() == a.cols(), "sub_rowvec_into: width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(&out != &a, "sub_rowvec_into: output aliases the input");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* r = a.data() + i * a.cols();
    double* o = out.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) o[j] = r[j] - v[j];
  }
}

void add_rowvec_inplace(Matrix& a, std::span<const double> v) {
  require(v.size() == a.cols(), "add_rowvec_inplace: width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* r = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) r[j] += v[j];
  }
}

namespace kernels {

void row_sq_norms(const Matrix& a, std::size_t lo, std::size_t hi,
                  std::vector<double>& out) {
  require(lo <= hi && hi <= a.rows(), "row_sq_norms: row range out of bounds");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  out.resize(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    auto r = a.row(i);
    double s = 0.0;
    for (std::size_t p = 0; p < r.size(); ++p) s = madd(r[p], r[p], s);
    out[i - lo] = s;
  }
}

double dot_canonical(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "dot_canonical: length mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  double s = 0.0;
  for (std::size_t p = 0; p < a.size(); ++p) s = madd(a[p], b[p], s);
  return s;
}

// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void cast_row_f32(std::span<const double> row, float* out) {
  for (std::size_t p = 0; p < row.size(); ++p)
    // cnd-analyze: allow(no-float) — narrowing cast into posting-block storage
    out[p] = static_cast<float>(row[p]);
}

// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void sq_norms_f32(const float* rows, std::size_t n, std::size_t d, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    // cnd-analyze: allow(no-float) — float32 accumulator, matches the scan
    const float* r = rows + i * d;
    // cnd-analyze: allow(no-float) — float32 accumulator, matches the scan
    float s = 0.0f;
    for (std::size_t p = 0; p < d; ++p) s = maddf(r[p], r[p], s);
    out[i] = s;
  }
}

// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void ivf_scan_f32(const float* q, float qn, const float* rows,
                  // cnd-analyze: allow(no-float) — continuation of the decl above
                  const float* norms, std::size_t n, std::size_t d, float* out) {
  for (std::size_t j = 0; j < n; ++j) {
    // cnd-analyze: allow(no-float) — float32 probe scan, rows are float32 blocks
    const float* r = rows + j * d;
    // cnd-analyze: allow(no-float) — float32 accumulator, p-ascending
    float dot = 0.0f;
    for (std::size_t p = 0; p < d; ++p) dot = maddf(q[p], r[p], dot);
    // cnd-analyze: allow(no-float) — float32 fused distance, clamped at 0
    const float d2 = qn + norms[j] - 2.0f * dot;
    out[j] = d2 < 0.0f ? 0.0f : d2;
  }
}

void matmul_ref(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "matmul_ref: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = madd(a(i, p), b(p, j), s);
      c(i, j) = s;
    }
}

void matmul_bt_ref(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_bt_ref: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), nb = b.rows();
  c.resize(m, nb);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < nb; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = madd(a(i, p), b(j, p), s);
      c(i, j) = s;
    }
}

void matmul_at_ref(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_ref: inner dimension mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  c.resize(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = madd(a(p, i), b(p, j), s);
      c(i, j) = s;
    }
}

void matmul_at_add_ref(Matrix& c, const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_add_ref: inner dimension mismatch");
  require(c.rows() == a.cols() && c.cols() == b.cols(),
          "matmul_at_add_ref: output shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = c(i, j);
      for (std::size_t p = 0; p < k; ++p) s = madd(a(p, i), b(p, j), s);
      c(i, j) = s;
    }
}

}  // namespace kernels

}  // namespace cnd
