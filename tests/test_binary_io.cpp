// Tests for the io::binary serialization primitives.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/binary.hpp"

namespace cnd::io {
namespace {

// ---- binary primitives ------------------------------------------------------

TEST(BinaryIo, PrimitiveRoundTrip) {
  const std::string path = "/tmp/cnd_bin_prim.bin";
  {
    std::ofstream f(path, std::ios::binary);
    write_header(f);
    write_u64(f, 12345);
    write_f64(f, 3.14159);
    write_string(f, "hello artifact");
    write_vec(f, {1.0, 2.5, -3.0});
    write_matrix(f, Matrix{{1, 2}, {3, 4}});
  }
  std::ifstream f(path, std::ios::binary);
  read_header(f);
  EXPECT_EQ(read_u64(f), 12345u);
  EXPECT_DOUBLE_EQ(read_f64(f), 3.14159);
  EXPECT_EQ(read_string(f), "hello artifact");
  EXPECT_EQ(read_vec(f), (std::vector<double>{1.0, 2.5, -3.0}));
  Matrix m = read_matrix(f);
  EXPECT_EQ(m(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(BinaryIo, RejectsWrongMagic) {
  const std::string path = "/tmp/cnd_bin_bad.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
    f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  std::ifstream f(path, std::ios::binary);
  EXPECT_THROW(read_header(f), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, RejectsMatrixHeaderWhoseSizeProductWraps) {
  // rows = cols = 2^32: the product 2^64 wraps to 0 in uint64_t, which
  // would pass a product-only size check and yield a matrix that reports
  // 2^32 x 2^32 but stores nothing.
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_u64(s, std::uint64_t{1} << 32);
  write_u64(s, std::uint64_t{1} << 32);
  EXPECT_THROW(read_matrix(s), std::runtime_error);
}

}  // namespace
}  // namespace cnd::io
