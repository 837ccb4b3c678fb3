// Fixture corpus (known-good).
// cnd-analyze-path: src/serve/stable_id_hash.cpp
#include <cstddef>
#include <cstdint>
#include <functional>

namespace cnd {

// Sharding by a stable id is deterministic across runs: std::hash over an
// integral key never sees an address.
std::size_t shard_of(std::uint64_t flow_id, std::size_t shards) {
  return std::hash<std::uint64_t>{}(flow_id) % shards;
}

}  // namespace cnd
