// Fixture corpus (known-bad).
// cnd-analyze-expect: layering
// cnd-analyze-path: src/tensor/layering.cpp
#include "nn/linear.hpp"
#include "tensor/matrix.hpp"

namespace cnd {

// src/tensor sits below src/nn in the dependency order; reaching up inverts
// the layer graph declared in src/CMakeLists.txt.
int upward_dependency() { return 1; }

}  // namespace cnd
