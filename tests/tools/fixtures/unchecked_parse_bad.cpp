// Fixture: every line marked HIT must produce one unchecked-parse finding.
#include <cstdlib>

namespace fixture {

int users(const char* v) { return atoi(v); }                // HIT
double seconds(const char* v) { return std::atof(v); }      // HIT
long count(const char* v) { return std::atol(v); }          // HIT
long long big(const char* v) { return ::atoll(v); }         // HIT

}  // namespace fixture
