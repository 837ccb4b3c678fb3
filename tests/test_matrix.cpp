// Unit tests for cnd::Matrix and its free-function algebra.
#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include "tensor/assert.hpp"

namespace cnd {
namespace {

TEST(Matrix, ConstructZeroFilled) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ConstructFillValue) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, OutOfBoundsAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 2), std::logic_error);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto r = m.row(1);
  r[2] = 9.0;
  EXPECT_EQ(m(1, 2), 9.0);
}

TEST(Matrix, SetRowAndRowVec) {
  Matrix m(2, 3);
  const std::vector<double> v{1, 2, 3};
  m.set_row(0, v);
  EXPECT_EQ(m.row_vec(0), v);
  EXPECT_THROW(m.set_row(0, std::vector<double>{1, 2}), std::invalid_argument);
}

TEST(Matrix, ColVec) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.col_vec(1), (std::vector<double>{2, 4, 6}));
}

TEST(Matrix, TakeRows) {
  Matrix m{{1, 1}, {2, 2}, {3, 3}};
  Matrix t = m.take_rows({2, 0});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t(0, 0), 3.0);
  EXPECT_EQ(t(1, 0), 1.0);
  EXPECT_THROW(m.take_rows({5}), std::invalid_argument);
}

TEST(Matrix, AppendRows) {
  Matrix a{{1, 2}};
  Matrix b{{3, 4}, {5, 6}};
  a.append_rows(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a(2, 1), 6.0);
  Matrix empty;
  empty.append_rows(a);
  EXPECT_EQ(empty.rows(), 3u);
  Matrix mismatch{{1, 2, 3}};
  EXPECT_THROW(a.append_rows(mismatch), std::invalid_argument);
}

TEST(Matrix, ElementwiseArithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  Matrix c = a + b;
  EXPECT_EQ(c(1, 1), 44.0);
  Matrix d = b - a;
  EXPECT_EQ(d(0, 0), 9.0);
  Matrix e = a * 2.0;
  EXPECT_EQ(e(1, 0), 6.0);
  Matrix f = 3.0 * a;
  EXPECT_EQ(f(0, 1), 6.0);
  EXPECT_THROW(a += Matrix(1, 2), std::invalid_argument);
}

TEST(Matrix, MatmulKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(Matrix, MatmulBtEqualsExplicitTranspose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8, 9}, {1, 2, 3}, {4, 5, 6}, {0, 1, 0}};
  Matrix expected = matmul(a, transpose(b));
  Matrix got = matmul_bt(a, b);
  ASSERT_TRUE(got.same_shape(expected));
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      EXPECT_DOUBLE_EQ(got(i, j), expected(i, j));
}

TEST(Matrix, MatmulAtEqualsExplicitTranspose) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix b{{7, 8, 9}, {1, 2, 3}, {4, 5, 6}};
  Matrix expected = matmul(transpose(a), b);
  Matrix got = matmul_at(a, b);
  ASSERT_TRUE(got.same_shape(expected));
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      EXPECT_DOUBLE_EQ(got(i, j), expected(i, j));
}

TEST(Matrix, TransposeInvolution) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = transpose(transpose(a));
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) EXPECT_EQ(t(i, j), a(i, j));
}

TEST(Matrix, ColMeanAndStddev) {
  Matrix m{{1, 10}, {3, 30}};
  auto mu = col_mean(m);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 20.0);
  auto sd = col_stddev(m, mu);
  EXPECT_DOUBLE_EQ(sd[0], 1.0);
  EXPECT_DOUBLE_EQ(sd[1], 10.0);
}

TEST(Matrix, SubRowvec) {
  Matrix m{{1, 2}, {3, 4}};
  const std::vector<double> v{1, 1};
  Matrix out = sub_rowvec(m, v);
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_EQ(out(1, 1), 3.0);
}

TEST(Matrix, FrobeniusAndDistances) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(frobenius_sq(m), 25.0);
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(sq_dist(a, b), 25.0);
  EXPECT_DOUBLE_EQ(dot(b, b), 25.0);
}

TEST(Matrix, IdentityProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix p = matmul(a, identity(2));
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(p(i, j), a(i, j));
}

TEST(Matrix, MseKnownValue) {
  Matrix a{{0, 0}, {0, 0}};
  Matrix b{{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(mse(a, b), 1.0);
  EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

}  // namespace
}  // namespace cnd
