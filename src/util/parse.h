// Strict, locale-independent number parsing built on std::from_chars.
//
// Every ingestion surface routes scalar conversion through these helpers
// instead of std::stoi/std::stod/std::atof, which (a) throw untyped
// std::invalid_argument / std::out_of_range, (b) silently accept trailing
// garbage ("4x" parses as 4), and (c) in atof's case honor LC_NUMERIC, so
// "0.5" can parse as 0 under a comma-decimal locale.
//
// Contract: the whole string (after optional surrounding ASCII whitespace)
// must be consumed, or the parse fails. The throwing variants raise
// ParseError naming the offending text and the key it was supplied for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.h"

namespace cpsguard::util {

/// Non-throwing strict parses; nullopt on any syntax error, trailing
/// garbage, or out-of-range value.
std::optional<long long> try_parse_int(std::string_view text);
std::optional<std::uint64_t> try_parse_u64(std::string_view text);
/// Accepts decimal and scientific notation plus "inf"/"-inf"/"nan"
/// (case-insensitive), always with '.' as the decimal separator regardless
/// of the global locale.
std::optional<double> try_parse_double(std::string_view text);

/// Throwing variants: `context` names the flag/key the value was supplied
/// for, so the ParseError message reads e.g.
///   cannot parse "--threads": "4x" is not an integer
long long parse_int(std::string_view text, std::string_view context);
std::uint64_t parse_u64(std::string_view text, std::string_view context);
double parse_double(std::string_view text, std::string_view context);

/// parse_int narrowed to int; out-of-int-range values are a ParseError.
int parse_int32(std::string_view text, std::string_view context);

/// Strict boolean: exactly one of true/false, 1/0, yes/no (lower case,
/// surrounding whitespace ignored). Anything else is a ParseError naming
/// `context` and the raw text — a typo such as "ture" must not silently
/// read as false.
bool parse_bool(std::string_view text, std::string_view context);

}  // namespace cpsguard::util
