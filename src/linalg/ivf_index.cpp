#include "linalg/ivf_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "runtime/parallel_for.hpp"
#include "tensor/assert.hpp"
#include "tensor/rng.hpp"

namespace cnd::linalg {

namespace {

// Shortlist headroom over k before the double re-rank. The float32 scan only
// has to get the true neighbours somewhere into the top 2k+8 of the probed
// clusters for recall to survive the precision drop; tests/test_ann.cpp and
// BENCH_ann.json hold the resulting recall@10 above threshold.
constexpr std::size_t kShortlistSlack = 8;

std::size_t auto_cluster_count(std::size_t rows) {
  const auto c = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(rows))));
  return std::clamp<std::size_t>(c, 1, rows);
}

}  // namespace

// Index construction: audited steady state — everything that grows here is
// a build-time buffer sized once from (rows, clusters, dim), annotated
// below; the per-iteration Lloyd loop itself allocates nothing after the
// first pass (Workspace-style reuse via sums/counts).
// cnd-hot
void IvfIndex::build_from(const Matrix& ref, const AnnConfig& cfg) {
  require(!ref.empty(), "IvfIndex::build_from: empty reference set");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(ref.rows() <= std::numeric_limits<std::uint32_t>::max(),  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
          "IvfIndex::build_from: reference set exceeds uint32 id range");
  cfg.validate();
  rows_ = ref.rows();
  dim_ = ref.cols();

  const std::size_t c_req =
      cfg.clusters > 0 ? std::min(cfg.clusters, rows_) : auto_cluster_count(rows_);

  // Seed the coarse centroids from a seeded permutation of the reference
  // rows: cheap, duplicate-free, and bit-identical at any thread count (the
  // index owns a private Rng stream — the caller's RNG, and therefore every
  // seeded golden result downstream, is untouched). Lloyd refinement below
  // does the actual shaping; k-means++ buys little for a coarse quantizer.
  Rng rng(cfg.seed);
  const std::vector<std::size_t> perm = rng.permutation(rows_);
  centroids_.resize(c_req, dim_);
  for (std::size_t c = 0; c < c_req; ++c)
    centroids_.set_row(c, ref.row(perm[c]));

  // Lloyd refinement: the assignment step is the SAME fused blocked kernel
  // K-Means uses (linalg::nearest_centroid); the update step accumulates
  // sums serially in ascending row order so the centroid values — and hence
  // the final posting lists — are independent of CND_THREADS. Empty clusters
  // keep their previous centroid and get compacted away after the final
  // assignment.
  std::vector<std::size_t> assign(rows_);
  Matrix sums;
  std::vector<std::size_t> counts;
  for (std::size_t it = 0; it < cfg.build_iters; ++it) {
    nearest_centroid(ref, centroids_, &assign, nullptr);
    sums.resize(c_req, dim_);
    std::fill(sums.data(), sums.data() + sums.size(), 0.0);
    counts.assign(c_req, 0);  // cnd-analyze: allow(hot-path-alloc) — build-time setup, bounded by C
    for (std::size_t i = 0; i < rows_; ++i) {
      auto s = sums.row(assign[i]);
      auto r = ref.row(i);
      for (std::size_t p = 0; p < dim_; ++p) s[p] += r[p];
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < c_req; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid.
      auto s = sums.row(c);
      auto dst = centroids_.row(c);
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t p = 0; p < dim_; ++p) dst[p] = s[p] * inv;
    }
  }

  // Final assignment against the refined centroids, then compact empty
  // clusters (order-preserving) so every posting block is non-empty.
  nearest_centroid(ref, centroids_, &assign, nullptr);
  counts.assign(c_req, 0);  // cnd-analyze: allow(hot-path-alloc) — build-time setup, bounded by C
  for (std::size_t i = 0; i < rows_; ++i) ++counts[assign[i]];
  std::vector<std::size_t> remap(c_req);
  std::size_t n_live = 0;
  for (std::size_t c = 0; c < c_req; ++c) {
    remap[c] = n_live;
    if (counts[c] > 0) ++n_live;
  }
  if (n_live < c_req) {
    Matrix packed(n_live, dim_);
    for (std::size_t c = 0; c < c_req; ++c)
      if (counts[c] > 0) packed.set_row(remap[c], centroids_.row(c));
    centroids_ = std::move(packed);
  }

  // Posting layout: offsets_ is the prefix sum of live-cluster sizes; the id
  // and float32 code blocks are filled by a single ascending-i pass, so ids
  // within each cluster come out ascending — the (d², id) total order the
  // search relies on needs no per-cluster sort.
  offsets_.assign(n_live + 1, 0);  // cnd-analyze: allow(hot-path-alloc) — build-time layout, bounded by C
  max_cluster_ = 0;
  for (std::size_t c = 0; c < c_req; ++c) {
    if (counts[c] == 0) continue;
    offsets_[remap[c] + 1] = counts[c];
    max_cluster_ = std::max(max_cluster_, counts[c]);
  }
  for (std::size_t c = 0; c < n_live; ++c) offsets_[c + 1] += offsets_[c];

  ids_.assign(rows_, 0);  // cnd-analyze: allow(hot-path-alloc) — build-time layout, bounded by N
  codes_.assign(rows_ * dim_, 0.0f);  // cnd-analyze: allow(no-float, hot-path-alloc) — build-time layout, bounded by N x d
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::size_t slot = cursor[remap[assign[i]]]++;
    ids_[slot] = static_cast<std::uint32_t>(i);
    kernels::cast_row_f32(ref.row(i), codes_.data() + slot * dim_);
  }
  code_norms_.assign(rows_, 0.0f);  // cnd-analyze: allow(no-float, hot-path-alloc) — build-time layout, bounded by N
  kernels::sq_norms_f32(codes_.data(), rows_, dim_, code_norms_.data());
  kernels::row_sq_norms(centroids_, 0, centroids_.rows(), cen_norms_);
}

void IvfIndex::search(const Matrix& query, const Matrix& ref,
                      std::span<const double> ref_sq_norms, std::size_t k,
                      std::size_t nprobe, bool exclude_self, Knn& out,
                      Scratch* scratch) const {
  require(built(), "IvfIndex::search: index not built");
  require(query.cols() == dim_, "IvfIndex::search: feature mismatch");
  require(ref.rows() == rows_ && ref.cols() == dim_,
          "IvfIndex::search: ref is not the matrix this index was built from");
  require(ref_sq_norms.size() == rows_,
          "IvfIndex::search: ref_sq_norms size mismatch");
  require(k > 0, "IvfIndex::search: k must be > 0");
  require(nprobe > 0, "IvfIndex::search: nprobe must be > 0 (0 selects the "
                      "exact path in NeighborProvider)");
  const std::size_t avail = rows_ - (exclude_self ? 1 : 0);
  require(k <= avail, "IvfIndex::search: k larger than reference set");

  out.indices.resize(query.rows());
  out.distances.resize(query.rows());

  // Per-row results are a pure function of (query row, stored bytes): the
  // probe order, shortlist, and re-rank never look across rows, so chunk
  // boundaries and thread count cannot change anything.
  auto run = [&](std::size_t lo, std::size_t hi, Scratch& sc) {
    kernels::row_sq_norms(query, lo, hi, sc.nq);
    for (std::size_t i = lo; i < hi; ++i)
      search_row(query, i, ref, ref_sq_norms, sc.nq[i - lo], k, nprobe,
                 exclude_self, sc, out.indices[i], out.distances[i]);
  };
  if (scratch != nullptr) {
    // Serial steady state through caller-owned scratch: zero heap
    // allocations once the scratch is warm (tests/test_ann.cpp).
    run(0, query.rows(), *scratch);
    return;
  }
  runtime::parallel_for(
      0, query.rows(),
      runtime::grain_for_cost((n_clusters() + max_cluster_ * nprobe) * dim_),
      [&](std::size_t lo, std::size_t hi) {
        Scratch sc;
        run(lo, hi, sc);
      });
}

// One query row: exact centroid ranking, float32 scan of the probed posting
// blocks into a bounded shortlist, double re-rank of the shortlist. Probes
// walk the (centroid d², centroid id) order and keep going past nprobe while
// fewer than k candidates have been seen (k > cluster-size edge).
// cnd-hot
void IvfIndex::search_row(const Matrix& query, std::size_t i, const Matrix& ref,
                          std::span<const double> ref_sq_norms,
                          double query_sq_norm, std::size_t k,
                          std::size_t nprobe, bool exclude_self, Scratch& sc,
                          std::vector<std::size_t>& out_idx,
                          std::vector<double>& out_dist) const {
  const auto qrow = query.row(i);
  const std::size_t n_cen = n_clusters();

  // Rank every coarse centroid by its exact double distance (dot_canonical,
  // the same chain as a Gram element); ties break on centroid id via the
  // pair's lexicographic order.
  sc.probes.resize(n_cen);  // cnd-analyze: allow(hot-path-alloc) — scratch warm-up, bounded by C
  for (std::size_t c = 0; c < n_cen; ++c) {
    const double d2 = std::max(
        0.0, query_sq_norm + cen_norms_[c] -
                 2.0 * kernels::dot_canonical(qrow, centroids_.row(c)));
    sc.probes[c] = {d2, c};
  }
  std::sort(sc.probes.begin(), sc.probes.end());

  // Query row in float32 plus its float32 norm, matching the posting blocks'
  // own accumulation pattern.
  sc.qf.resize(dim_);  // cnd-analyze: allow(hot-path-alloc) — scratch warm-up, bounded by d
  kernels::cast_row_f32(qrow, sc.qf.data());
  // cnd-analyze: allow(no-float) — float32 scan epilogue (docs/ANN.md)
  float qnf = 0.0f;
  kernels::sq_norms_f32(sc.qf.data(), 1, dim_, &qnf);
  sc.scan.resize(max_cluster_);  // cnd-analyze: allow(hot-path-alloc) — scratch warm-up, bounded by max cluster

  // Bounded max-heap over (float32 d² widened to double, id): a deterministic
  // total order, so the surviving shortlist is a pure function of the values.
  const std::size_t avail = rows_ - (exclude_self ? 1 : 0);
  const std::size_t cap = std::min(avail, 2 * k + kShortlistSlack);
  sc.shortlist.clear();
  sc.shortlist.reserve(cap);  // cnd-analyze: allow(hot-path-alloc) — scratch warm-up, bounded by 2k+8
  const std::size_t nprobe_eff = std::min(nprobe, n_cen);
  std::size_t seen = 0;
  for (std::size_t p = 0; p < n_cen && (p < nprobe_eff || seen < k); ++p) {
    const std::size_t c = sc.probes[p].second;
    const std::size_t base = offsets_[c];
    const std::size_t n = cluster_size(c);
    kernels::ivf_scan_f32(sc.qf.data(), qnf, codes_.data() + base * dim_,
                          code_norms_.data() + base, n, dim_, sc.scan.data());
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t id = ids_[base + j];
      if (exclude_self && id == i) continue;
      ++seen;
      const std::pair<double, std::uint32_t> cand{
          static_cast<double>(sc.scan[j]), id};
      if (sc.shortlist.size() < cap) {
        sc.shortlist.push_back(cand);  // cnd-analyze: allow(hot-path-alloc) — within reserve(cap) capacity
        std::push_heap(sc.shortlist.begin(), sc.shortlist.end());
      } else if (cand < sc.shortlist.front()) {
        std::pop_heap(sc.shortlist.begin(), sc.shortlist.end());
        sc.shortlist.back() = cand;
        std::push_heap(sc.shortlist.begin(), sc.shortlist.end());
      }
    }
  }

  // Double re-rank: replace every shortlisted float32 distance with the
  // exact double value the brute-force kernel would produce for that pair,
  // then keep the k best under the exact (d², id) order. Reported distances
  // are therefore bit-identical to linalg::knn's for the same pairs.
  for (auto& [d2, id] : sc.shortlist)
    d2 = std::max(0.0, query_sq_norm + ref_sq_norms[id] -
                           2.0 * kernels::dot_canonical(qrow, ref.row(id)));
  std::sort(sc.shortlist.begin(), sc.shortlist.end());
  out_idx.resize(k);
  out_dist.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out_idx[j] = sc.shortlist[j].second;
    out_dist[j] = std::sqrt(sc.shortlist[j].first);
  }
}

}  // namespace cnd::linalg
