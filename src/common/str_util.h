#ifndef CARDBENCH_COMMON_STR_UTIL_H_
#define CARDBENCH_COMMON_STR_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/status.h"

namespace cardbench {

/// Splits `text` on `sep`, keeping empty fields. Split("a,,b", ',') yields
/// {"a", "", "b"}.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// FNV-1a 64-bit hash. Stable across platforms and runs — used to derive
/// per-sub-plan RNG seeds (sampling estimators) and cache shard choices,
/// where std::hash's unspecified stability would break reproducibility.
uint64_t Fnv1aHash(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses the whole of `text` as one base-10 number of type T (an integer
/// type or double) with std::from_chars: no surrounding whitespace, no '+'
/// sign, no trailing characters. Malformed text and values outside T's range
/// give InvalidArgument. This is the checked replacement for std::sto*, which
/// throws on both and silently ignores trailing garbage ("12abc" reads as 12).
template <typename T>
Result<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("number out of range: '" +
                                   std::string(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not a number: '" + std::string(text) +
                                   "'");
  }
  return value;
}

/// Human-readable duration: picks s / ms / h formatting as the paper's
/// tables do (e.g. "3.67h", "25s", "4.3ms").
std::string FormatDuration(double seconds);

/// Human-readable byte count ("1.2MB", "340KB").
std::string FormatBytes(size_t bytes);

/// Compact scientific-ish count formatting for large cardinalities
/// ("2.0e12", "146").
std::string FormatCount(double count);

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_STR_UTIL_H_
