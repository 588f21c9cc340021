#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace humo::text {

/// Jaccard similarity |A∩B| / |A∪B| over token multiset-deduplicated sets.
/// Two empty token lists have similarity 1. This is the title/authors metric
/// used by the paper on DBLP-Scholar and the name/description metric on
/// Abt-Buy.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Convenience overload: normalizes both strings (lower-case, strip
/// punctuation), word-tokenizes, and computes Jaccard. Re-does that work on
/// EVERY call — scoring loops that see each record many times should go to
/// dictionary ids via data/record_columns.h + simd_similarity.h instead.
double JaccardSimilarity(std::string_view a, std::string_view b);

}  // namespace humo::text
