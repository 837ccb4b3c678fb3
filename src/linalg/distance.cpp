#include "linalg/distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/ivf_index.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::linalg {

// Norms come from kernels::row_sq_norms — it lives in the kernels
// translation unit so the norm and the Gram entry for the same row are the
// same instruction pattern bit-for-bit, making the fused self-distance
// n + n − 2n exactly 0.0 (see kernels.hpp).
using kernels::row_sq_norms;

namespace {

// Query rows per Gram block inside knn: bounds the d² scratch to
// kQueryBlock x ref.rows() regardless of query size. Per-(i, j) values do
// not depend on the block boundaries, so this is a pure footprint knob.
constexpr std::size_t kQueryBlock = 64;

// Rows of x per Gram block in the fused nearest-centroid pass; bounds the
// per-chunk d² scratch to kRowBlock x k regardless of dataset size.
constexpr std::size_t kRowBlock = 256;

// Shared core of pairwise_sq_dist_into and the NeighborProvider variant:
// `nb` must already hold row_sq_norms(b) (cached or fresh — same bits either
// way, it is the same function on the same input).
// cnd-hot
void pairwise_sq_dist_impl(Matrix& d2, const Matrix& a, const Matrix& b,
                           const std::vector<double>& nb, Workspace& ws) {
  require(a.cols() == b.cols(), "pairwise_sq_dist: feature mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  CND_DCHECK_ALL_FINITE(a, "pairwise_sq_dist: lhs has non-finite elements");
  CND_DCHECK_ALL_FINITE(b, "pairwise_sq_dist: rhs has non-finite elements");
  auto& na = ws.vec(0, a.rows());
  row_sq_norms(a, 0, a.rows(), na);
  // The output doubles as the Gram buffer: G = a·bᵀ lands in d2, then the
  // norms fold in element-wise. max(0, ·) clamps the cancellation when two
  // rows are (nearly) identical.
  matmul_bt_into(d2, a, b);
  runtime::parallel_for(0, a.rows(), runtime::grain_for_cost(b.rows() * 4),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto di = d2.row(i);
      for (std::size_t j = 0; j < di.size(); ++j)
        di[j] = std::max(0.0, na[i] + nb[j] - 2.0 * di[j]);
    }
  });
}

// Shared core of knn and the NeighborProvider's exact path: `nref` must
// already hold row_sq_norms(ref). The provider caches it across calls — the
// bits are identical to a fresh computation, so so are the results.
// cnd-hot
void knn_impl(Knn& out, const Matrix& query, const Matrix& ref,
              const std::vector<double>& nref, std::size_t k,
              bool exclude_self) {
  require(query.cols() == ref.cols(), "knn: feature mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(k > 0, "knn: k must be > 0");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  // NaN distances have no place in an ordering; catch them before they
  // silently scramble neighbour lists.
  CND_DCHECK_ALL_FINITE(query, "knn: query has non-finite elements");
  CND_DCHECK_ALL_FINITE(ref, "knn: reference has non-finite elements");
  require(!exclude_self || &query == &ref,  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
          "knn: exclude_self requires query and ref to be the same matrix");
  const std::size_t avail = ref.rows() - (exclude_self ? 1 : 0);
  require(k <= avail, "knn: k larger than reference set");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)

  out.indices.resize(query.rows());
  out.distances.resize(query.rows());

  // Queries are independent; each chunk carries its own Gram/heap scratch,
  // reused across its fixed-size query blocks. Candidates are totally
  // ordered by (d², index), so the k survivors — and therefore the output —
  // are a deterministic function of the values alone, independent of heap
  // mechanics, block boundaries, and thread count.
  runtime::parallel_for(0, query.rows(),
                        runtime::grain_for_cost(ref.rows() * query.cols()),
                        [&](std::size_t lo, std::size_t hi) {
    Workspace ws;
    std::vector<double> nq;
    // Bounded size-k max-heap (std::*_heap with the default pair ordering:
    // the root is the current worst survivor).
    std::vector<std::pair<double, std::size_t>> heap;
    heap.reserve(k);  // cnd-analyze: allow(hot-path-alloc) — once per chunk, bounded by k
    for (std::size_t q0 = lo; q0 < hi; q0 += kQueryBlock) {
      const std::size_t q1 = std::min(hi, q0 + kQueryBlock);
      Matrix& g = ws.mat(0, q1 - q0, ref.rows());
      matmul_bt_rows_into(g, query, q0, q1, ref);
      row_sq_norms(query, q0, q1, nq);
      for (std::size_t i = q0; i < q1; ++i) {
        auto gr = g.row(i - q0);
        heap.clear();
        for (std::size_t j = 0; j < ref.rows(); ++j) {
          if (exclude_self && j == i) continue;
          const double d2 = std::max(0.0, nq[i - q0] + nref[j] - 2.0 * gr[j]);
          const std::pair<double, std::size_t> cand{d2, j};
          if (heap.size() < k) {
            heap.push_back(cand);  // cnd-analyze: allow(hot-path-alloc) — within reserve(k) capacity
            std::push_heap(heap.begin(), heap.end());
          } else if (cand < heap.front()) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = cand;
            std::push_heap(heap.begin(), heap.end());
          }
        }
        std::sort(heap.begin(), heap.end());
        auto& idx = out.indices[i];
        auto& dst = out.distances[i];
        idx.resize(k);
        dst.resize(k);
        for (std::size_t j = 0; j < k; ++j) {
          idx[j] = heap[j].second;
          dst[j] = std::sqrt(heap[j].first);
        }
      }
    }
  });
}

}  // namespace

// cnd-hot
void pairwise_sq_dist_into(Matrix& d2, const Matrix& a, const Matrix& b,
                           Workspace& ws) {
  auto& nb = ws.vec(1, b.rows());
  row_sq_norms(b, 0, b.rows(), nb);
  pairwise_sq_dist_impl(d2, a, b, nb, ws);
}

// cnd-hot
Matrix pairwise_dist(const Matrix& a, const Matrix& b) {
  Workspace ws;
  Matrix d;
  pairwise_sq_dist_into(d, a, b, ws);
  runtime::parallel_for(0, d.rows(), runtime::grain_for_cost(d.cols() * 8),
                        [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      for (double& v : d.row(i)) v = std::sqrt(v);
  });
  return d;
}

// cnd-hot
Knn knn(const Matrix& query, const Matrix& ref, std::size_t k, bool exclude_self) {
  std::vector<double> nref;
  row_sq_norms(ref, 0, ref.rows(), nref);
  Knn out;
  knn_impl(out, query, ref, nref, k, exclude_self);
  return out;
}

// cnd-hot
void nearest_centroid(const Matrix& x, const Matrix& cen,
                      std::vector<std::size_t>* assign,
                      std::vector<double>* d2_out) {
  std::vector<double> ncen;
  row_sq_norms(cen, 0, cen.rows(), ncen);
  runtime::parallel_for(0, x.rows(),
                        runtime::grain_for_cost(cen.rows() * x.cols()),
                        [&](std::size_t lo, std::size_t hi) {
    Workspace ws;
    std::vector<double> nx;
    for (std::size_t b0 = lo; b0 < hi; b0 += kRowBlock) {
      const std::size_t b1 = std::min(hi, b0 + kRowBlock);
      Matrix& g = ws.mat(0, b1 - b0, cen.rows());
      matmul_bt_rows_into(g, x, b0, b1, cen);
      row_sq_norms(x, b0, b1, nx);
      for (std::size_t i = b0; i < b1; ++i) {
        auto gr = g.row(i - b0);
        std::size_t best = 0;
        double bd = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < cen.rows(); ++c) {
          const double d2 = std::max(0.0, nx[i - b0] + ncen[c] - 2.0 * gr[c]);
          if (d2 < bd) {
            bd = d2;
            best = c;
          }
        }
        if (assign) (*assign)[i] = best;
        if (d2_out) (*d2_out)[i] = bd;
      }
    }
  });
}

// ---- AnnConfig / NeighborProvider ------------------------------------------

// cnd-throw-ok(config validation — runs once at construction/bootstrap, never per batch)
void AnnConfig::validate() const {
  if (nprobe == 0) return;  // exact mode: the other knobs are inert.
  require(build_iters > 0, "AnnConfig: build_iters must be > 0");
}

// cnd-alloc-ok(bind is the train-time rebind — reference set, norms, and
// index are rebuilt once per experience, never on a scoring path)
void NeighborProvider::bind(Matrix ref, const AnnConfig& cfg) {
  require(!ref.empty(), "NeighborProvider: empty reference set");
  cfg.validate();
  ref_ = std::move(ref);
  cfg_ = cfg;
  row_sq_norms(ref_, 0, ref_.rows(), ref_norms_);
  if (cfg_.nprobe > 0) {
    auto ix = std::make_shared<IvfIndex>();
    ix->build_from(ref_, cfg_);
    index_ = std::move(ix);
  } else {
    index_.reset();
  }
}

Knn NeighborProvider::knn(const Matrix& query, std::size_t k,
                          bool exclude_self) const {
  require(ready(), "NeighborProvider::knn: no reference set bound");
  require(!exclude_self || &query == &ref_,
          "NeighborProvider::knn: exclude_self requires querying ref() itself");
  Knn out;
  if (exact()) {
    knn_impl(out, query, ref_, ref_norms_, k, exclude_self);
  } else {
    index_->search(query, ref_, ref_norms_, k, cfg_.nprobe, exclude_self, out);
  }
  return out;
}

void NeighborProvider::pairwise_sq_dist(Matrix& d2, const Matrix& a,
                                        Workspace& ws) const {
  require(ready(), "NeighborProvider::pairwise_sq_dist: no reference set bound");
  pairwise_sq_dist_impl(d2, a, ref_, ref_norms_, ws);
}

}  // namespace cnd::linalg
