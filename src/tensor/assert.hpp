// Always-on argument checking for the cnd libraries.
//
// Preconditions on public APIs throw std::invalid_argument with a message;
// internal invariants use CND_CHECK (tensor/check.hpp), which throws
// std::logic_error so that a violated invariant is observable in Release
// builds and testable.
#pragma once

#include <stdexcept>
#include <string>

namespace cnd {

/// Throws std::invalid_argument if `cond` is false. Use for argument checks
/// on public entry points. The const char* overload is the hot one: string
/// literals bind to it directly, so a passing check touches neither the
/// heap nor the allocator (the zero-allocation steady-state contract of the
/// `_into` kernels depends on this).
inline void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

inline void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace cnd
