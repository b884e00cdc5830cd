// Fixture: C++14 digit separators. A ' inside a number is not a
// character literal, so the code between and after separated numbers
// keeps its line numbers and stays linted. Lines carrying an expectation
// marker must be reported by adhoc_lint.py; unmarked lines must stay
// clean. This file is linted by tests/tools/lint_selftest.py only — it
// is not built and not part of the `ctest -R lint` production sweep.
#include <ctime>

namespace fixture {

constexpr long kTwenty = 20'000;
long between() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)
constexpr long kHundred = 100'000;
constexpr long kBillion = 1'000'000'000;
constexpr double kHalfMilli = 0.000'5;
constexpr double kTiny = .000'001;
constexpr double kBig = 1e+1'0;
constexpr unsigned kMask = 0xFF'FFu;
constexpr unsigned kBits = 0b1010'0101;
long after() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)

// A statement spanning lines, with separators on both: the suppression
// below it still binds to the line it names.
long suppressed_after_span() {
  const long sum = kTwenty + 1'000 +
                   2'000;
  return sum + std::time(nullptr);  // NOLINT-ADHOC(wall-clock)
}

// Negatives: character literals stay character literals, prefixed ones
// included. A '"' inside them must not open a string that swallows the
// next line.
char dquote() { return '"'; }
long after_dquote() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)
char8_t utf8_dquote() { return u8'"'; }
long after_utf8() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)
wchar_t wide_dquote() { return L'"'; }
long after_wide() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)
char quote() { return '\''; }
long after_quote() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)
int digit_value(char c) { return c - '0'; }
long after_minus() { return std::time(nullptr); }  // EXPECT-LINT(wall-clock)

}  // namespace fixture
