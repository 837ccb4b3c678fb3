// Fixture corpus (known-bad).
// cnd-analyze-expect: include-hygiene
// cnd-analyze-path: src/core/include_hygiene.cpp
#include "../tensor/matrix.hpp"
#include <bits/stdc++.h>
#include <tensor/rng.hpp>

namespace cnd {
int unused() { return 0; }
}  // namespace cnd
