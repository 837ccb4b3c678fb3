// Fixture corpus (known-bad).
// cnd-analyze-expect: no-pointer-hash
// cnd-analyze-path: src/serve/pointer_hash.cpp
#include <cstddef>
#include <functional>

namespace cnd {

struct Flow;

// Sharding by pointer identity: the same flow lands on a different shard
// every run because the heap address (ASLR) feeds the hash.
std::size_t shard_of(const Flow* flow, std::size_t shards) {
  return std::hash<const Flow*>{}(flow) % shards;
}

}  // namespace cnd
