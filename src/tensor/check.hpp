// Runtime invariant checks for the numeric hot paths.
//
// Extends tensor/assert.hpp with two tiers (docs/STATIC_ANALYSIS.md):
//
//  - CND_CHECK(cond, msg): always on, in every build type. Use where the
//    check is O(1) relative to the work it guards (entry-point shape
//    checks, convergence invariants).
//  - CND_DCHECK* macros: compiled to nothing unless CND_ENABLE_DCHECKS is
//    defined (CMake -DCND_DCHECKS=ON; forced on for Debug and sanitizer
//    builds). Use for per-element work — NaN/Inf sweeps, per-access bounds
//    checks — that would perturb Release throughput and the BENCH_*.json
//    record.
//
// Both tiers throw std::logic_error, so a violated invariant is observable
// and unit-testable rather than a silent abort.
#pragma once

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "tensor/assert.hpp"
#include "tensor/matrix.hpp"

namespace cnd::check {

/// The failure branch of every check: one out-of-line call. `what` is a
/// string_view so a literal message builds no std::string at the call site,
/// which keeps always-on checks in inner loops (Matrix::operator()) cheap.
[[noreturn, gnu::noinline, gnu::cold]] inline void fail(const char* kind,
                                                        std::string_view what,
                                                        const char* file,
                                                        int line) {
  throw std::logic_error(std::string(kind) + " failed: " + std::string(what) +
                         " at " + file + ":" + std::to_string(line));
}

/// True when every element is finite (no NaN, no +-Inf).
inline bool all_finite(std::span<const double> v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

inline bool all_finite(const Matrix& m) {
  return all_finite(std::span<const double>(m.data(), m.size()));
}

}  // namespace cnd::check

#define CND_CHECK(cond, msg)     \
  ((cond) ? static_cast<void>(0) \
          : ::cnd::check::fail("CND_CHECK(" #cond ")", (msg), __FILE__, __LINE__))

#ifdef CND_ENABLE_DCHECKS

#define CND_DCHECK(cond, msg)    \
  ((cond) ? static_cast<void>(0) \
          : ::cnd::check::fail("CND_DCHECK(" #cond ")", (msg), __FILE__, __LINE__))

/// Index i must be < n.
#define CND_DCHECK_BOUNDS(i, n)                                               \
  (((i) < (n)) ? static_cast<void>(0)                                         \
               : ::cnd::check::fail("CND_DCHECK_BOUNDS",                      \
                                    std::string(#i "=") + std::to_string(i) + \
                                        " >= " #n "=" + std::to_string(n),    \
                                    __FILE__, __LINE__))

/// Scalar must be finite (not NaN/Inf).
#define CND_DCHECK_FINITE(x, what)                                         \
  (std::isfinite(x) ? static_cast<void>(0)                                 \
                    : ::cnd::check::fail("CND_DCHECK_FINITE",              \
                                         std::string(what) + " = " +       \
                                             std::to_string(x),            \
                                         __FILE__, __LINE__))

/// Every element of a Matrix or span<const double> must be finite.
#define CND_DCHECK_ALL_FINITE(m, what)                                  \
  (::cnd::check::all_finite(m)                                          \
       ? static_cast<void>(0)                                           \
       : ::cnd::check::fail("CND_DCHECK_ALL_FINITE", (what), __FILE__, \
                            __LINE__))

#else  // !CND_ENABLE_DCHECKS: every dcheck vanishes, operands unevaluated.

#define CND_DCHECK(cond, msg) static_cast<void>(0)
#define CND_DCHECK_BOUNDS(i, n) static_cast<void>(0)
#define CND_DCHECK_FINITE(x, what) static_cast<void>(0)
#define CND_DCHECK_ALL_FINITE(m, what) static_cast<void>(0)

#endif  // CND_ENABLE_DCHECKS
