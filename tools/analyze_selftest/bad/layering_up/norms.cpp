// cnd-analyze-path: src/tensor/norms.cpp
// cnd-analyze-expect: layering
// tensor may not reach up into nn, even through a forward declaration that
// no include list shows.
namespace cnd {

double squash(double x) { return nn::relu(x); }

}  // namespace cnd
