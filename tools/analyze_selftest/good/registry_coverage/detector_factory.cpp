// cnd-analyze-path: src/core/detector_factory.cpp
// A two-detector registry: check_determinism.sh must name both.
namespace cnd::core {

void register_all(Registry& r) {
  r.add("CND-IDS", [](const Config& c) { return make_cnd(c); });
  r.add("Maha", [](const Config& c) { return make_maha(c); });
}

}  // namespace cnd::core
