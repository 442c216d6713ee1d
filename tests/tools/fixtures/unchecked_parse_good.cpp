// Fixture: must produce zero unchecked-parse findings.  Scanned, never
// compiled.  One suppressed site, plus look-alikes that must NOT fire:
// comments, strings, members, another namespace's function and a longer
// identifier.
#include <cstdlib>

#include "fixture/parser.hpp"  // Parser, mine::atoi, my_atoi

namespace fixture {

// Mentioning std::atoi(v) in a comment must not fire.
constexpr const char* kDoc = "atof(v) in a string";

int parsed(const Parser& p, const Parser* q, const char* v) {
  return p.atoi(v) + q->atoi(v) + mine::atoi(v) + my_atoi(v);
}

int legacy(const char* v) {
  // wlan-lint: allow(unchecked-parse) — fixture for the suppression path
  return std::atoi(v);
}

}  // namespace fixture
