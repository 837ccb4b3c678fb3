#include "serve/flow_record.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "tensor/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CND_SERVE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CND_SERVE_HAVE_MMAP 0
#endif

namespace cnd::serve {

namespace {

struct Header {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t dim = 0;
  std::uint64_t count = 0;
};

Header parse_header(const unsigned char* bytes) {
  Header h;
  std::memcpy(&h.magic, bytes, 4);
  std::memcpy(&h.version, bytes + 4, 4);
  std::memcpy(&h.dim, bytes + 8, 4);
  std::memcpy(&h.count, bytes + 12, 8);
  return h;
}

void validate_header(const Header& h, std::size_t payload_bytes,
                     const std::string& path) {
  require(h.magic == kFlowMagic,
          "FlowRecordFile: " + path + " is not a flow-record file");
  require(h.version == kFlowVersion,
          "FlowRecordFile: " + path + " has unsupported format version");
  require(h.dim > 0, "FlowRecordFile: " + path + " has zero feature width");
  // count <= payload / row_bytes is count * row_bytes <= payload without
  // the product, which a crafted count can wrap.
  const std::uint64_t row_bytes = std::uint64_t{h.dim} * sizeof(float);
  require(h.count <= payload_bytes / row_bytes,
          "FlowRecordFile: " + path + " is truncated (header promises more "
          "rows than the payload holds)");
}

}  // namespace

FlowRecordFile::FlowRecordFile(const std::string& path) {
#if CND_SERVE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::size_t>(st.st_size) >= kFlowHeaderBytes) {
      const auto len = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping keeps the file alive
      if (base != MAP_FAILED) {
        const Header h = parse_header(static_cast<const unsigned char*>(base));
        try {
          validate_header(h, len - kFlowHeaderBytes, path);
        } catch (...) {
          ::munmap(base, len);
          throw;
        }
        map_base_ = base;
        map_len_ = len;
        mapped_ = true;
        data_ = reinterpret_cast<const float*>(
            static_cast<const unsigned char*>(base) + kFlowHeaderBytes);
        dim_ = h.dim;
        rows_ = static_cast<std::size_t>(h.count);
        return;
      }
    } else {
      ::close(fd);
    }
  }
#endif
  // Fallback: read the whole file into an owned buffer. Same semantics,
  // no zero-copy. Also the path taken for files too small to hold a header
  // (so the error message comes from the validator, not from mmap).
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good())
    throw std::runtime_error("FlowRecordFile: cannot open " + path);
  const auto file_bytes = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  unsigned char hdr[kFlowHeaderBytes];
  in.read(reinterpret_cast<char*>(hdr), static_cast<std::streamsize>(kFlowHeaderBytes));
  require(in.gcount() == static_cast<std::streamsize>(kFlowHeaderBytes),
          "FlowRecordFile: " + path + " is too small to hold a header");
  const Header h = parse_header(hdr);
  // Validate against the file size before sizing the buffer from the header.
  validate_header(h, file_bytes - kFlowHeaderBytes, path);
  owned_.resize(static_cast<std::size_t>(h.count) * h.dim);
  in.read(reinterpret_cast<char*>(owned_.data()),
          static_cast<std::streamsize>(owned_.size() * sizeof(float)));
  validate_header(h, static_cast<std::size_t>(in.gcount()), path);
  data_ = owned_.data();
  dim_ = h.dim;
  rows_ = static_cast<std::size_t>(h.count);
}

void FlowRecordFile::close() noexcept {
#if CND_SERVE_HAVE_MMAP
  if (mapped_ && map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
  map_base_ = nullptr;
  map_len_ = 0;
  mapped_ = false;
  data_ = nullptr;
  rows_ = 0;
  dim_ = 0;
  owned_.clear();
}

FlowRecordFile::~FlowRecordFile() { close(); }

FlowRecordFile::FlowRecordFile(FlowRecordFile&& o) noexcept { *this = std::move(o); }

FlowRecordFile& FlowRecordFile::operator=(FlowRecordFile&& o) noexcept {
  if (this == &o) return *this;
  close();
  owned_ = std::move(o.owned_);
  data_ = o.data_;
  rows_ = o.rows_;
  dim_ = o.dim_;
  mapped_ = o.mapped_;
  map_base_ = o.map_base_;
  map_len_ = o.map_len_;
  o.data_ = nullptr;
  o.map_base_ = nullptr;
  o.map_len_ = 0;
  o.mapped_ = false;
  o.rows_ = 0;
  o.dim_ = 0;
  o.owned_.clear();
  return *this;
}

std::span<const float> FlowRecordFile::row(std::size_t i) const {
  require(open(), "FlowRecordFile::row: no file open");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  require(i < rows_, "FlowRecordFile::row: row index out of range");  // cnd-throw-ok(precondition on caller-supplied shapes/arguments — programmer error, not traffic)
  return {data_ + i * dim_, dim_};
}

void FlowRecordFile::copy_rows_into(std::size_t lo, std::size_t hi,
                                    Matrix& out) const {
  require(open(), "FlowRecordFile::copy_rows_into: no file open");
  require(lo <= hi && hi <= rows_, "FlowRecordFile::copy_rows_into: bad range");
  out.resize(hi - lo, dim_);
  for (std::size_t i = lo; i < hi; ++i) {
    const float* src = data_ + i * dim_;
    auto dst = out.row(i - lo);
    // float -> double widening is exact: the serving scores are bit-equal
    // to scoring the same values from any other double-typed source.
    for (std::size_t j = 0; j < dim_; ++j) dst[j] = static_cast<double>(src[j]);
  }
}

FlowRecordWriter::FlowRecordWriter(const std::string& path, std::size_t dim)
    : path_(path), dim_(dim) {
  require(dim > 0, "FlowRecordWriter: dim must be > 0");
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr)
    throw std::runtime_error("FlowRecordWriter: cannot open " + path);
  const std::uint32_t magic = kFlowMagic, version = kFlowVersion;
  const auto dim32 = static_cast<std::uint32_t>(dim);
  const std::uint64_t count = 0;  // patched by close()
  ok_ = std::fwrite(&magic, 4, 1, f_) == 1 && std::fwrite(&version, 4, 1, f_) == 1 &&
        std::fwrite(&dim32, 4, 1, f_) == 1 && std::fwrite(&count, 8, 1, f_) == 1;
}

void FlowRecordWriter::append(const Matrix& rows) {
  require(f_ != nullptr, "FlowRecordWriter::append: writer is closed");
  require(rows.cols() == dim_, "FlowRecordWriter::append: feature mismatch");
  std::vector<float> buf(rows.cols());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    auto r = rows.row(i);
    for (std::size_t j = 0; j < rows.cols(); ++j)
      buf[j] = static_cast<float>(r[j]);
    if (std::fwrite(buf.data(), sizeof(float), buf.size(), f_) != buf.size())
      ok_ = false;
  }
  rows_ += rows.rows();
}

void FlowRecordWriter::close() {
  if (f_ == nullptr) return;
  // Patch the row count now that it is known.
  const auto count = static_cast<std::uint64_t>(rows_);
  if (std::fseek(f_, 12, SEEK_SET) != 0 || std::fwrite(&count, 8, 1, f_) != 1)
    ok_ = false;
  if (std::fclose(f_) != 0) ok_ = false;
  f_ = nullptr;
  if (!ok_) throw std::runtime_error("FlowRecordWriter: write failed for " + path_);
}

FlowRecordWriter::~FlowRecordWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an unflushed file surfaces on read.
  }
}

}  // namespace cnd::serve
