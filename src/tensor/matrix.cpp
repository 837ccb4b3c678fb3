#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/assert.hpp"
#include "tensor/check.hpp"
#include "tensor/kernels.hpp"

namespace cnd {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

// cnd-alloc-ok(constructing an owning matrix allocates by definition; hot loops use workspace slots)
Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : init) {
    require(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

// The element accessors are the inner loop of many element-wise loops, and
// their bodies are under 64 bytes. They are aligned to 64 so a body never
// straddles two 64-byte fetch blocks: where it did, a loop of accessor
// calls (measured on the Jacobi eigensolve before it moved to raw row
// pointers) ran about 1.7x slower (4-vCPU Intel Xeon VM, GCC 12 -O3), and
// which case a build got depended on the size of unrelated code linked
// before.
[[gnu::aligned(64)]] double& Matrix::operator()(std::size_t r, std::size_t c) {
  CND_CHECK(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

[[gnu::aligned(64)]] double Matrix::operator()(std::size_t r, std::size_t c) const {
  CND_CHECK(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  CND_CHECK(r < rows_, "Matrix::row: row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  CND_CHECK(r < rows_, "Matrix::row: row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::row_vec(std::size_t r) const {
  auto s = row(r);
  return {s.begin(), s.end()};
}

std::vector<double> Matrix::col_vec(std::size_t c) const {
  CND_CHECK(c < cols_, "Matrix::col_vec: column out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> v) {
  require(v.size() == cols_, "Matrix::set_row: width mismatch");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  std::copy(v.begin(), v.end(), row(r).begin());
}

// cnd-alloc-ok(grows only when the shape changes; a steady batch shape is a no-op)
void Matrix::resize(std::size_t rows, std::size_t cols) {
  if (rows_ == rows && cols_ == cols) return;
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

Matrix Matrix::take_rows(const std::vector<std::size_t>& idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    require(idx[i] < rows_, "Matrix::take_rows: index out of range");
    out.set_row(i, row(idx[i]));
  }
  return out;
}

void Matrix::append_rows(const Matrix& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  require(cols_ == other.cols_, "Matrix::append_rows: column mismatch");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  require(same_shape(o), "Matrix::+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  require(same_shape(o), "Matrix::-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

// The three matmul variants are thin allocating wrappers over the blocked
// `_into` kernels (tensor/kernels.{hpp,cpp}): output rows are distributed
// over the runtime pool, and each element accumulates over the inner
// dimension in the canonical p-ascending order, so results are bit-identical
// at any thread count (docs/PARALLELISM.md).

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_bt_into(c, a, b);
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_into(c, a, b);
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

std::vector<double> col_mean(const Matrix& a) {
  require(a.rows() > 0, "col_mean: empty matrix");
  std::vector<double> m(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) m[j] += r[j];
  }
  for (double& v : m) v /= static_cast<double>(a.rows());
  return m;
}

std::vector<double> col_stddev(const Matrix& a, const std::vector<double>& mean) {
  require(mean.size() == a.cols(), "col_stddev: mean size mismatch");
  require(a.rows() > 0, "col_stddev: empty matrix");
  std::vector<double> s(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = r[j] - mean[j];
      s[j] += d * d;
    }
  }
  for (double& v : s) v = std::sqrt(v / static_cast<double>(a.rows()));
  return s;
}

Matrix sub_rowvec(Matrix a, std::span<const double> v) {
  require(v.size() == a.cols(), "sub_rowvec: width mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) r[j] -= v[j];
  }
  return a;
}

double frobenius_sq(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (double v : a.row(i)) s += v * v;
  return s;
}

double sq_dist(std::span<const double> a, std::span<const double> b) {
  CND_CHECK(a.size() == b.size(), "sq_dist: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  CND_CHECK(a.size() == b.size(), "dot: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double mse(const Matrix& a, const Matrix& b) {
  require(a.same_shape(b), "mse: shape mismatch");
  require(a.size() > 0, "mse: empty matrices");
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = ra[j] - rb[j];
      s += d * d;
    }
  }
  return s / static_cast<double>(a.size());
}

}  // namespace cnd
