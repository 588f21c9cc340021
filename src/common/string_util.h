#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace humo {

/// Splits on any run of characters in `seps`; drops empty fields.
std::vector<std::string> SplitAny(std::string_view s, std::string_view seps);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Collapses runs of whitespace to single spaces and trims; lower-cases;
/// strips all characters that are not alphanumeric or space. This is the
/// canonical normalization applied to attribute values before similarity
/// computation.
std::string NormalizeForMatching(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace humo
