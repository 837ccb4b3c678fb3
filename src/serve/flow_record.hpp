// Binary flow-record files — the serving layer's wire format for batches of
// flow feature vectors (docs/SERVING.md).
//
// Layout (little-endian, fvecs/ivecs-style fixed header + payload):
//
//   u32 magic      0xC9D5F10A  ("CND flow")
//   u32 version    1
//   u32 dim        features per flow
//   u64 count      number of flows
//   f32 payload    count x dim, row-major
//
// The payload is float32 on purpose: flow features are sensor readings, not
// accumulators — single precision halves the file and doubles the flows a
// page of cache holds, and every consumer widens to double before any
// arithmetic (the determinism contract is stated for double accumulation,
// and float->double widening is exact). src/serve is deliberately outside
// the lint no-float layers.
//
// FlowRecordFile memory-maps the payload read-only and hands out zero-copy
// row spans; when mmap is unavailable it falls back to reading the file
// into an owned buffer with identical semantics. FlowRecordWriter is the
// producer side used by benches, tests, and `cnd pack`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace cnd::serve {

inline constexpr std::uint32_t kFlowMagic = 0xC9D5F10A;
inline constexpr std::uint32_t kFlowVersion = 1;
/// Header size in bytes: magic + version + dim + count.
inline constexpr std::size_t kFlowHeaderBytes = 4 + 4 + 4 + 8;

/// Read-only view over a flow-record file. Rows are zero-copy spans into
/// the mapped payload. Move-only (owns the mapping).
class FlowRecordFile {
 public:
  FlowRecordFile() = default;
  /// Opens and maps `path`; throws std::runtime_error on open/parse
  /// failure, std::invalid_argument on a malformed header.
  explicit FlowRecordFile(const std::string& path);
  ~FlowRecordFile();

  FlowRecordFile(const FlowRecordFile&) = delete;
  FlowRecordFile& operator=(const FlowRecordFile&) = delete;
  FlowRecordFile(FlowRecordFile&& o) noexcept;
  FlowRecordFile& operator=(FlowRecordFile&& o) noexcept;

  bool open() const { return data_ != nullptr; }
  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }

  /// Zero-copy view of one flow (length dim()).
  std::span<const float> row(std::size_t i) const;

  /// Widen rows [lo, hi) into `out` (resized to (hi-lo) x dim; reuses its
  /// allocation when the shape already matches). This is the batch-assembly
  /// path of the serving loop.
  void copy_rows_into(std::size_t lo, std::size_t hi, Matrix& out) const;

 private:
  void close() noexcept;

  const float* data_ = nullptr;     ///< payload start (mapped or owned).
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;        ///< mmap base (header included).
  std::size_t map_len_ = 0;
  std::vector<float> owned_;        ///< fallback storage when !mapped_.
};

/// Streaming writer: append batches, then close() patches the row count
/// into the header. The file is invalid until close() (or the destructor)
/// runs.
class FlowRecordWriter {
 public:
  /// Throws std::runtime_error when `path` cannot be opened.
  FlowRecordWriter(const std::string& path, std::size_t dim);
  ~FlowRecordWriter();

  FlowRecordWriter(const FlowRecordWriter&) = delete;
  FlowRecordWriter& operator=(const FlowRecordWriter&) = delete;

  /// Narrow `rows` (n x dim) to float32 and append.
  void append(const Matrix& rows);

  std::size_t rows_written() const { return rows_; }

  /// Flush, patch the header's count, and close. Idempotent. Throws
  /// std::runtime_error naming the path when any write, the seek or the
  /// close failed (a full disk, say).
  void close();

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
  std::size_t dim_ = 0;
  std::size_t rows_ = 0;
  bool ok_ = true;  ///< false once a write or seek has failed.
};

}  // namespace cnd::serve
