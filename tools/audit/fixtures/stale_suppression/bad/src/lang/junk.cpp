// stale-suppression bad fixture: both allow comments below suppress
// nothing — the hazards they describe are gone.

// capstan-lint: allow(nondet-source) -- claims a rand() call that was removed
int answer() { return 42; }

// capstan-audit: allow(env-registry) -- claims a raw getenv that was removed
int other() { return 7; }
