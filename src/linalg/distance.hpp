// Pairwise distances and k-nearest-neighbour queries (brute force).
//
// LOF, K-Means diagnostics, and the triplet miner all need distances; at the
// dataset sizes this repository runs (tens of thousands of rows, tens of
// features) brute force is the right tool. The distance computation itself
// is GEMM-shaped: d²(i, j) = ||a_i||² + ||b_j||² − 2·a_i·b_j with the cross
// term produced by the register-blocked Gram kernel (tensor/kernels.hpp),
// clamped at 0 against cancellation. Row norms accumulate in the same
// canonical p-ascending order as the Gram kernel, so a point's distance to
// itself is exactly 0.0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace cnd::linalg {

/// Fused squared-distance matrix between rows of a and rows of b, written
/// into `d2` (resized in place; also serves as the Gram buffer, so the only
/// extra scratch is the two norm vectors in `ws`). Values are clamped at 0.
void pairwise_sq_dist_into(Matrix& d2, const Matrix& a, const Matrix& b,
                           Workspace& ws);

/// Full pairwise Euclidean distance matrix between rows of a and rows of b.
Matrix pairwise_dist(const Matrix& a, const Matrix& b);

/// Indices (and distances) of the k nearest rows of `ref` for each row of
/// `query`, excluding self-matches when `exclude_self` (which requires
/// query and ref to be the same object). Neighbours are ordered by
/// ascending distance with deterministic index-ascending tie-breaking.
struct Knn {
  std::vector<std::vector<std::size_t>> indices;  ///< per query row, size k.
  std::vector<std::vector<double>> distances;     ///< matching Euclidean dists.
};
Knn knn(const Matrix& query, const Matrix& ref, std::size_t k, bool exclude_self);

/// Fused blocked nearest-centroid pass (the K-Means assignment step, hoisted
/// here so the IVF index below can train with the identical kernel): blocked
/// Gram product of x row slices against the centroid matrix, d² = ||x||² +
/// ||c||² − 2·x·c clamped at 0, argmin scanning centroids in ascending index
/// with strict < (ties go to the smallest index, matching a scalar linear
/// scan). Fills assign[i] and/or d2_out[i] when non-null (both sized
/// x.rows() by the caller). Deterministic at any thread count: each (i, c)
/// value is independent of chunk and block boundaries.
void nearest_centroid(const Matrix& x, const Matrix& cen,
                      std::vector<std::size_t>* assign,
                      std::vector<double>* d2_out);

// ---- Approximate-neighbor seam (docs/ANN.md) -------------------------------

/// Knobs for the IVF approximate-neighbor path. The default (nprobe = 0)
/// means EXACT brute force — the executable contract, same pattern as the
/// naive reference kernels — so every neighbor-driven detector behaves
/// byte-identically to the pre-ANN tree unless a caller opts in.
struct AnnConfig {
  /// Coarse clusters scanned per query; 0 = exact brute force (default).
  std::size_t nprobe = 0;
  /// Coarse centroid count for the index; 0 = auto (≈ √N, clamped to [1, N]).
  std::size_t clusters = 0;
  /// Lloyd refinement passes when training the coarse quantizer.
  std::size_t build_iters = 8;
  /// Seed for the index's private RNG stream (portable cnd::Rng), so builds
  /// are bit-identical at any thread count.
  std::uint64_t seed = 0x1df5eedULL;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class IvfIndex;

/// NeighborProvider: the one seam the repeated-neighbor-query paths (LOF,
/// the kNN detector) go through. It owns the reference matrix, caches its
/// kernels::row_sq_norms once per bind (LOF used to recompute them on every
/// score call), and — when AnnConfig::nprobe > 0 — builds and holds an IVF
/// index over it.
/// Exact mode routes to the same brute-force kernel as linalg::knn, so its
/// results are bit-identical to a direct call.
class NeighborProvider {
 public:
  /// Take ownership of the reference set; recompute cached norms; build the
  /// IVF index iff cfg.nprobe > 0. Validates cfg.
  void bind(Matrix ref, const AnnConfig& cfg = {});

  bool ready() const { return !ref_.empty(); }
  bool exact() const { return cfg_.nprobe == 0; }
  const Matrix& ref() const { return ref_; }
  const AnnConfig& config() const { return cfg_; }
  /// Cached ||ref_i||² in the kernels-TU accumulation pattern.
  const std::vector<double>& ref_sq_norms() const { return ref_norms_; }
  /// Non-null iff an ANN index is active.
  const IvfIndex* index() const { return index_.get(); }

  /// k nearest reference rows per query row. exclude_self requires `query`
  /// to be this provider's own ref() object (same contract as linalg::knn).
  /// Exact mode is bit-identical to linalg::knn(query, ref(), k, ...).
  Knn knn(const Matrix& query, std::size_t k, bool exclude_self) const;

  /// Fused squared distances of `a` against the owned reference set, using
  /// the cached reference norms (d2 gets a.rows() x ref().rows(); values
  /// bit-identical to pairwise_sq_dist_into against ref()).
  void pairwise_sq_dist(Matrix& d2, const Matrix& a, Workspace& ws) const;

 private:
  Matrix ref_;
  AnnConfig cfg_;
  std::vector<double> ref_norms_;
  std::shared_ptr<const IvfIndex> index_;  ///< shared: providers are copyable.
};

}  // namespace cnd::linalg
