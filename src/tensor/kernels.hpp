// Register-blocked GEMM/distance kernels and their caller-allocated `_into`
// entry points — the numeric substrate's hot core.
//
// Every kernel here obeys one canonical accumulation-order contract
// (docs/PARALLELISM.md, "Kernel accumulation-order contract"): each output
// element c(i, j) is accumulated over the inner dimension p in strictly
// ascending order, one fused term at a time, exactly as the naive triple
// loop would. Cache blocking and register tiling only change *which* output
// elements are in flight together, never the order of adds within one
// element — so the blocked kernels are bit-identical to the naive reference
// kernels below, at any tile size and any CND_THREADS. tests/test_kernels.cpp
// enforces this over a sweep of tile-straddling shapes.
//
// The `_into` variants write a caller-provided output Matrix (resized in
// place, reusing its allocation when the shape already matches) so
// steady-state training/scoring loops run with zero heap allocations; the
// `Workspace` below is the small reusable buffer pool those loops thread
// through.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace cnd {

namespace kernels {

// Tile geometry, exposed so the equivalence tests can sweep shapes that
// straddle every boundary. MR x NR output elements are held in registers
// while the inner dimension streams; KC bounds the p-panel so the A/B
// working set stays L1/L2-resident between the round-trips through C.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 8;
inline constexpr std::size_t kKc = 256;

}  // namespace kernels

// ---- Reusable buffer pool --------------------------------------------------

/// A small pool of scratch buffers for steady-state hot loops. Slots are
/// keyed by index; `mat`/`vec` return the slot resized to the requested
/// shape, reusing the existing allocation whenever it is large enough, so a
/// loop that requests the same shapes every iteration performs zero heap
/// allocations after the first pass. Contents are unspecified on return —
/// callers overwrite. Returned references stay valid when later slots are
/// created (deque storage), so callers may hold several slots at once. Not
/// thread-safe: one Workspace per thread/loop.
class Workspace {
 public:
  Matrix& mat(std::size_t slot, std::size_t rows, std::size_t cols);
  std::vector<double>& vec(std::size_t slot, std::size_t size);

 private:
  std::deque<Matrix> mats_;
  std::deque<std::vector<double>> vecs_;
};

// ---- Blocked kernels, caller-allocated outputs -----------------------------
//
// All `_into` kernels resize `c`/`out` (allocation-free when the shape
// already matches), require the output not to alias an input, and validate
// input shapes with `require` (std::invalid_argument on mismatch).

/// c = a(m x k) * b(k x n).
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);

/// c = a(m x k) * b(n x k)^T. Packs b^T one kKc x kNr panel at a time into
/// a stack buffer instead of materializing it.
void matmul_bt_into(Matrix& c, const Matrix& a, const Matrix& b);

/// c = a(k x m)^T * b(k x n). Avoids materializing a^T.
void matmul_at_into(Matrix& c, const Matrix& a, const Matrix& b);

/// c += a(k x m)^T * b(k x n); c must already be m x n. The gradient
/// accumulation kernel: continues each element's canonical p-ascending
/// chain on top of the value already in c.
void matmul_at_add_into(Matrix& c, const Matrix& a, const Matrix& b);

/// Row-slice product c = a[lo:hi) * b^T for chunked distance pipelines;
/// c gets (hi - lo) x b.rows(). Runs serially (callers sit inside a
/// parallel region).
void matmul_bt_rows_into(Matrix& c, const Matrix& a, std::size_t lo,
                         std::size_t hi, const Matrix& b);

/// out = a with `v` subtracted from every row.
void sub_rowvec_into(Matrix& out, const Matrix& a, std::span<const double> v);

/// a += v broadcast over rows (the bias add).
void add_rowvec_inplace(Matrix& a, std::span<const double> v);

namespace kernels {

/// out[i - lo] = ||a.row(i)||² for i in [lo, hi), accumulated p-ascending.
/// Lives in this translation unit ON PURPOSE: the fused squared distance
/// ||a||² + ||b||² − 2·a·b is exactly 0.0 for identical rows only when the
/// norm and the Gram entry are produced by the same instruction pattern
/// (same FP-contraction setting), which is guaranteed by compiling both in
/// this file — kernels.cpp may be built with wider ISA/FMA flags than the
/// rest of the tree (see src/CMakeLists.txt, CND_KERNEL_MARCH).
void row_sq_norms(const Matrix& a, std::size_t lo, std::size_t hi,
                  std::vector<double>& out);

/// One Gram element's canonical chain: Σ_p madd(a[p]·b[p]) with p strictly
/// ascending — exactly the instruction pattern of one blocked-GEMM output
/// element, exposed as a scalar so the IVF re-rank (linalg/ivf_index.cpp)
/// can promote a float32 shortlist back to the bit-identical double distance
/// the exact kernels would have produced.
double dot_canonical(std::span<const double> a, std::span<const double> b);

// ---- float32 IVF scan variants ---------------------------------------------
//
// The ONE sanctioned float32 surface in the bit-exactness layers
// (docs/ANN.md): the IVF probe loop scans contiguous per-cluster float32
// blocks for CANDIDATE SELECTION only — every distance that leaves the index
// is re-ranked in double via dot_canonical. The scan lives in this TU so a
// single ISA/contraction setting (src/CMakeLists.txt, CND_KERNEL_MARCH)
// covers it: candidate sets are then a pure function of the stored bytes,
// identical at any thread count and across sanitizer builds.

/// Cast one double row into a packed float32 row (posting-block storage).
// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void cast_row_f32(std::span<const double> row, float* out);

/// out[i] = ||rows[i]||² over n packed float32 rows of width d, accumulated
/// p-ascending in float32 (matches the scan's own accumulation pattern).
// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void sq_norms_f32(const float* rows, std::size_t n, std::size_t d, float* out);

/// Fused float32 scan of one query against a packed block:
/// out[j] = max(0, qn + norms[j] − 2·q·rows[j]), j in [0, n).
// cnd-analyze: allow(no-float) — the sanctioned float32 IVF scan surface
void ivf_scan_f32(const float* q, float qn, const float* rows,
                  // cnd-analyze: allow(no-float) — continuation of the decl above
                  const float* norms, std::size_t n, std::size_t d, float* out);

// Naive reference kernels: the canonical accumulation order written as the
// obvious triple loop, no blocking, no parallelism. The blocked kernels
// above must match these bit-for-bit (tests/test_kernels.cpp); they are the
// executable definition of the contract, not a fast path.
void matmul_ref(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_bt_ref(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_at_ref(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_at_add_ref(Matrix& c, const Matrix& a, const Matrix& b);

}  // namespace kernels

}  // namespace cnd
