#include "io/binary.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "tensor/assert.hpp"

namespace cnd::io {

namespace {

void check_stream(const std::ios& s, const char* what) {
  if (!s.good()) throw std::runtime_error(std::string("cnd::io: ") + what);
}

}  // namespace

void write_header(std::ostream& os) {
  const std::uint32_t magic = kMagic, version = kVersion;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  check_stream(os, "header write failed");
}

void read_header(std::istream& is) {
  std::uint32_t magic = 0, version = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  check_stream(is, "header read failed");
  if (magic != kMagic) throw std::runtime_error("cnd::io: not a CND-IDS artifact");
  if (version != kVersion)
    throw std::runtime_error("cnd::io: unsupported artifact version " +
                             std::to_string(version));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  check_stream(os, "u64 write failed");
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check_stream(is, "u64 read failed");
  return v;
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  check_stream(os, "f64 write failed");
}

double read_f64(std::istream& is) {
  double v = 0.0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check_stream(is, "f64 read failed");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
  check_stream(os, "string write failed");
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > (1u << 20)) throw std::runtime_error("cnd::io: implausible string size");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  check_stream(is, "string read failed");
  return s;
}

void write_vec(std::ostream& os, const std::vector<double>& v) {
  write_u64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
  check_stream(os, "vector write failed");
}

std::vector<double> read_vec(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > (1u << 28)) throw std::runtime_error("cnd::io: implausible vector size");
  std::vector<double> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  check_stream(is, "vector read failed");
  return v;
}

void write_matrix(std::ostream& os, const Matrix& m) {
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(double)));
  check_stream(os, "matrix write failed");
}

Matrix read_matrix(std::istream& is) {
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  // Each factor is bounded before the product is formed, so a crafted
  // header (e.g. 2^32 x 2^32) cannot wrap the product past the limit.
  constexpr std::uint64_t kMaxElems = 1u << 28;
  if (rows > kMaxElems || cols > kMaxElems || rows * cols > kMaxElems)
    throw std::runtime_error("cnd::io: implausible matrix size");
  Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(double)));
  check_stream(is, "matrix read failed");
  return m;
}

std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x00000100000001b3ull;
  }
  return h;
}

void write_envelope(std::ostream& os, std::uint64_t tag,
                    const std::string& payload) {
  write_header(os);
  write_u64(os, tag);
  write_u64(os, payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  check_stream(os, "envelope payload write failed");
  write_u64(os, fnv1a64(payload.data(), payload.size()));
}

std::string read_envelope(std::istream& is, std::uint64_t expected_tag,
                          const char* what) {
  read_header(is);
  const std::uint64_t tag = read_u64(is);
  if (tag != expected_tag)
    throw std::runtime_error(std::string("cnd::io: ") + what +
                             ": stream carries another detector's snapshot "
                             "(tag " + std::to_string(tag) + ")");
  const std::uint64_t n = read_u64(is);
  if (n > (1ull << 30))
    throw std::runtime_error(std::string("cnd::io: ") + what +
                             ": implausible snapshot payload size");
  std::string payload(static_cast<std::size_t>(n), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(n));
  check_stream(is, "envelope payload read failed");
  const std::uint64_t want = read_u64(is);
  const std::uint64_t got = fnv1a64(payload.data(), payload.size());
  if (got != want)
    throw std::runtime_error(std::string("cnd::io: ") + what +
                             ": snapshot payload checksum mismatch — "
                             "artifact is corrupt");
  return payload;
}

}  // namespace cnd::io
