#include "util/parse.h"

#include <cctype>
#include <charconv>
#include <limits>

namespace cpsguard::util {

namespace {

std::string_view strip_ws(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

template <typename T>
std::optional<T> from_chars_all(std::string_view s) {
  T value{};
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

[[noreturn]] void fail(std::string_view text, std::string_view context,
                       const char* kind) {
  throw ParseError("cannot parse \"" + std::string(context) + "\": \"" +
                   std::string(text) + "\" is not " + kind);
}

}  // namespace

std::optional<long long> try_parse_int(std::string_view text) {
  const std::string_view s = strip_ws(text);
  if (s.empty()) return std::nullopt;
  return from_chars_all<long long>(s);
}

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  const std::string_view s = strip_ws(text);
  // from_chars<unsigned> accepts no sign at all, so "-1" is rejected here
  // rather than wrapping around the way std::stoull does.
  if (s.empty() || s.front() == '+' || s.front() == '-') return std::nullopt;
  return from_chars_all<std::uint64_t>(s);
}

std::optional<double> try_parse_double(std::string_view text) {
  std::string_view s = strip_ws(text);
  if (s.empty()) return std::nullopt;
  // std::from_chars(double) accepts "inf"/"nan" spellings but no leading
  // '+'; normalize that one divergence from the stod-era surface.
  bool negate = false;
  if (s.front() == '+') {
    s.remove_prefix(1);
    if (s.empty() || s.front() == '+' || s.front() == '-') return std::nullopt;
  } else if (s.front() == '-') {
    negate = true;
    s.remove_prefix(1);
    if (s.empty() || s.front() == '+' || s.front() == '-') return std::nullopt;
  }
  if (iequals(s, "inf") || iequals(s, "infinity")) {
    const double inf = std::numeric_limits<double>::infinity();
    return negate ? -inf : inf;
  }
  if (iequals(s, "nan")) return std::numeric_limits<double>::quiet_NaN();
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  // Out-of-double-range magnitudes are rejected, not saturated: a config
  // value of 1e999 is a typo, not a request for infinity (spell "inf" for
  // that).
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return negate ? -value : value;
}

long long parse_int(std::string_view text, std::string_view context) {
  const auto v = try_parse_int(text);
  if (!v) fail(text, context, "an integer");
  return *v;
}

std::uint64_t parse_u64(std::string_view text, std::string_view context) {
  const auto v = try_parse_u64(text);
  if (!v) fail(text, context, "an unsigned integer");
  return *v;
}

double parse_double(std::string_view text, std::string_view context) {
  const auto v = try_parse_double(text);
  if (!v) fail(text, context, "a number");
  return *v;
}

int parse_int32(std::string_view text, std::string_view context) {
  const long long v = parse_int(text, context);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    fail(text, context, "a 32-bit integer");
  }
  return static_cast<int>(v);
}

bool parse_bool(std::string_view text, std::string_view context) {
  const std::string_view s = strip_ws(text);
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  fail(text, context, "a boolean (true/false, 1/0, yes/no)");
}

}  // namespace cpsguard::util
