// Dense row-major matrix of double.
//
// This is the numeric workhorse for the whole repository: the NN library,
// PCA/eigen solvers, clustering, and the data generators all operate on
// cnd::Matrix. It deliberately stays small — value semantics, bounds-checked
// element access through operator(), and free functions for algebra — rather
// than growing into a full expression-template library.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace cnd {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Copy of row r as a vector.
  std::vector<double> row_vec(std::size_t r) const;
  /// Copy of column c as a vector.
  std::vector<double> col_vec(std::size_t c) const;

  /// Overwrite row r with `v` (v.size() must equal cols()).
  void set_row(std::size_t r, std::span<const double> v);

  /// New matrix containing the given rows, in order.
  Matrix take_rows(const std::vector<std::size_t>& idx) const;

  /// Reshape to rows x cols in place, reusing the existing allocation when
  /// it is large enough (free when the shape already matches — the steady
  /// batch case). Element values are unspecified afterwards unless the
  /// shape was unchanged; callers overwrite. This is what the `_into`
  /// kernels (tensor/kernels.hpp) call on their outputs.
  void resize(std::size_t rows, std::size_t cols);

  /// Stack `other` below this matrix (column counts must match; stacking
  /// onto an empty matrix adopts the other's width).
  void append_rows(const Matrix& other);

  // Element-wise in-place arithmetic (shapes must match).
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Free-function algebra -------------------------------------------------

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// Matrix product a(m x k) * b(k x n) -> (m x n). Register-blocked kernel
/// (tensor/kernels.hpp); canonical p-ascending accumulation per element.
Matrix matmul(const Matrix& a, const Matrix& b);

/// a(m x k) * b^T where b is (n x k) -> (m x n). Packs b^T one panel at a
/// time instead of materializing it.
Matrix matmul_bt(const Matrix& a, const Matrix& b);

/// a^T(k x m) * b(k x n) -> (m x n). Avoids materializing a^T.
Matrix matmul_at(const Matrix& a, const Matrix& b);

Matrix transpose(const Matrix& a);

/// Column means -> vector of length cols.
std::vector<double> col_mean(const Matrix& a);

/// Column standard deviations (population, ddof=0) -> length cols.
std::vector<double> col_stddev(const Matrix& a, const std::vector<double>& mean);

/// Subtract a row vector from every row (in place on a copy).
Matrix sub_rowvec(Matrix a, std::span<const double> v);

/// Sum of squares of all elements.
double frobenius_sq(const Matrix& a);

/// Squared Euclidean distance between two equal-length spans.
double sq_dist(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length spans.
double dot(std::span<const double> a, std::span<const double> b);

/// Identity matrix n x n.
Matrix identity(std::size_t n);

/// Mean of squared element-wise difference (the MSE between two matrices).
double mse(const Matrix& a, const Matrix& b);

}  // namespace cnd
