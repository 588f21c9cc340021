#include "text/token_similarity.h"

#include <unordered_set>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace humo::text {
namespace {

size_t IntersectionSize(const std::unordered_set<std::string>& sa,
                        const std::unordered_set<std::string>& sb) {
  const auto& small = sa.size() <= sb.size() ? sa : sb;
  const auto& large = sa.size() <= sb.size() ? sb : sa;
  size_t n = 0;
  for (const auto& t : small)
    if (large.count(t)) ++n;
  return n;
}

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const auto sa = TokenSet(a), sb = TokenSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = IntersectionSize(sa, sb);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardSimilarity(std::string_view a, std::string_view b) {
  return JaccardSimilarity(WordTokens(NormalizeForMatching(a)),
                           WordTokens(NormalizeForMatching(b)));
}

}  // namespace humo::text
