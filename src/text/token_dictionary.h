#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace humo::text {

/// Interns token strings into dense uint32 ids, assigned in first-seen
/// order. Interning is the ONE place the raw-record hot path touches token
/// strings: everything downstream (record columns, similarity kernels,
/// MinHash signatures, TF-IDF weights) operates on the integer ids. Because
/// ids are assigned by insertion order, a dictionary built by iterating
/// records in table order is deterministic — independent of hash-map
/// iteration order, thread count, and platform.
///
/// The dictionary also tracks per-token document frequency (via
/// CountDocument), the statistic TfIdfModel::FitDictionary turns into an
/// id-indexed IDF table.
class TokenDictionary {
 public:
  /// Id of `token`, interning it if unseen. Ids are dense: 0, 1, 2, ...
  uint32_t Intern(std::string_view token);

  /// Id of `token`, or kNoToken when it was never interned.
  static constexpr uint32_t kNoToken = UINT32_MAX;
  uint32_t IdOf(std::string_view token) const;

  /// Token string for an id (ids are dense, so this is an array lookup).
  const std::string& TokenOf(uint32_t id) const { return tokens_[id]; }

  size_t size() const { return tokens_.size(); }

  /// Bumps the document frequency of every id in [ids, ids + n). Callers
  /// pass each document's DEDUPLICATED ids exactly once, so a token counts
  /// at most once per document.
  void CountDocument(const uint32_t* ids, size_t n);

  /// Documents counted so far and per-id document frequency.
  size_t num_documents() const { return num_documents_; }
  const std::vector<uint32_t>& doc_freq() const { return doc_freq_; }

 private:
  std::unordered_map<std::string, uint32_t> id_by_token_;
  std::vector<std::string> tokens_;
  std::vector<uint32_t> doc_freq_;
  size_t num_documents_ = 0;
};

}  // namespace humo::text
