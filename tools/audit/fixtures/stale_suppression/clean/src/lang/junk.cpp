// stale-suppression clean fixture: both allow comments below absorb a
// live finding, so neither is stale.
#include <cstdlib>

bool seededProbe() {
  // capstan-lint: allow(nondet-source) -- fixture: the seed is fixed
  srand(42);
  // capstan-audit: allow(env-registry) -- fixture: a raw name on purpose
  return std::getenv("CAPSTAN_FIXTURE") != nullptr;
}
