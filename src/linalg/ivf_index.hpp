// IVF (inverted-file) coarse-quantized approximate-neighbor index
// (docs/ANN.md).
//
// Layout — the classic `centroids / cluster_id` pair of a coarse quantizer:
// a small matrix of coarse centroids trained by the same blocked K-Means
// assignment kernel the ml layer uses (linalg::nearest_centroid), plus one
// contiguous posting block per cluster holding the member row ids
// (ascending) and their vectors re-packed as float32. A query first ranks
// centroids by the exact fused distance kernel, scans the `nprobe` closest
// clusters' float32 blocks with the kernels-TU float32 scan to shortlist
// candidates, then RE-RANKS the shortlist in double via
// kernels::dot_canonical — so every distance that leaves the index is the
// bit-identical value the exact brute-force kernel would have produced for
// that pair. The float32 stage only decides WHICH candidates are considered.
//
// Determinism contract: build and search are bit-identical at any
// CND_THREADS. Training uses a private portable cnd::Rng stream and a serial
// centroid-update loop; per-query work is value-independent of chunk/block
// boundaries; candidates are totally ordered by (d², id); probes are ordered
// by (centroid d², centroid id) and expand past nprobe only when the probed
// clusters hold fewer than k candidates (the k > cluster-size edge case).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "linalg/distance.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace cnd::linalg {

class IvfIndex {
 public:
  /// Train the coarse quantizer on `ref` and build the posting blocks.
  /// Deterministic at any thread count. Empty clusters are compacted away,
  /// so n_clusters() can come out below the requested count.
  void build_from(const Matrix& ref, const AnnConfig& cfg);

  bool built() const { return !offsets_.empty(); }
  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }
  std::size_t n_clusters() const { return centroids_.rows(); }
  std::size_t cluster_size(std::size_t c) const {
    return offsets_[c + 1] - offsets_[c];
  }
  std::size_t max_cluster_size() const { return max_cluster_; }
  const Matrix& centroids() const { return centroids_; }
  /// Member row ids of cluster c, ascending.
  std::span<const std::uint32_t> cluster_ids(std::size_t c) const {
    return {ids_.data() + offsets_[c], cluster_size(c)};
  }

  /// Per-query scratch for the probe loop. After two warm-up searches with
  /// the same shapes, a scratch-driven search performs zero heap
  /// allocations (tests/test_ann.cpp holds it to that with a counting
  /// operator new).
  struct Scratch {
    Workspace ws;                                        ///< centroid Gram.
    std::vector<double> nq;                              ///< query norms.
    std::vector<std::pair<double, std::size_t>> probes;  ///< (cen d², cen id).
    // cnd-analyze: allow(no-float) — float32 probe-scan buffers (docs/ANN.md)
    std::vector<float> qf;    ///< query row cast to float32.
    // cnd-analyze: allow(no-float) — float32 probe-scan buffers (docs/ANN.md)
    std::vector<float> scan;  ///< per-cluster scan output.
    std::vector<std::pair<double, std::uint32_t>> shortlist;  ///< (d², id).
  };

  /// Approximate k-nearest-neighbour search of every row of `query` against
  /// the matrix this index was built from, which the caller passes back as
  /// `ref` together with its double row norms (the NeighborProvider caches
  /// both) for the double re-rank. With `scratch` non-null the search runs
  /// serially through that scratch (the zero-allocation steady state);
  /// otherwise query chunks run in parallel with per-chunk scratch. Results
  /// are identical either way.
  void search(const Matrix& query, const Matrix& ref,
              std::span<const double> ref_sq_norms, std::size_t k,
              std::size_t nprobe, bool exclude_self, Knn& out,
              Scratch* scratch = nullptr) const;

 private:
  void search_row(const Matrix& query, std::size_t i, const Matrix& ref,
                  std::span<const double> ref_sq_norms, double query_sq_norm,
                  std::size_t k, std::size_t nprobe, bool exclude_self,
                  Scratch& sc, std::vector<std::size_t>& out_idx,
                  std::vector<double>& out_dist) const;

  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t max_cluster_ = 0;
  Matrix centroids_;                     ///< coarse centroids (double).
  std::vector<double> cen_norms_;        ///< ||centroid||², kernels pattern.
  std::vector<std::size_t> offsets_;     ///< per-cluster ranges, size C+1.
  std::vector<std::uint32_t> ids_;       ///< concatenated member row ids.
  // cnd-analyze: allow(no-float) — float32 posting blocks (docs/ANN.md)
  std::vector<float> codes_;             ///< concatenated float32 vectors.
  // cnd-analyze: allow(no-float) — float32 posting blocks (docs/ANN.md)
  std::vector<float> code_norms_;        ///< float32 ||row||² per stored row.
};

}  // namespace cnd::linalg
