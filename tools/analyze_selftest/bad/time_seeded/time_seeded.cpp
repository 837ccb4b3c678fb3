// Fixture corpus (known-bad): the classic time-seeded RNG trips
// both the RNG rule and the clock rule.
// cnd-analyze-expect: rng-confinement
// cnd-analyze-expect: no-clock
// cnd-analyze-path: src/data/time_seeded.cpp
#include <cstdlib>
#include <ctime>

namespace cnd {

void seed_from_wall_clock() { std::srand(static_cast<unsigned>(time(nullptr))); }

}  // namespace cnd
