#pragma once

#include <cstdint>
#include <vector>

#include "text/token_dictionary.h"

namespace humo::text {

/// Corpus-level TF-IDF model over dictionary token ids. Fit from a
/// TokenDictionary's document frequencies, then transform documents (sorted
/// unique ids plus term frequencies) into L2-normalized weight columns whose
/// dot product (text::IdWeightedDot) is the cosine similarity. IDF is one
/// array lookup per token id: no token strings, no hashing, and no
/// per-document allocation.
class TfIdfModel {
 public:
  /// Fits from dictionary statistics: `dict.num_documents()` documents with
  /// `dict.doc_freq()` per-id frequencies (as accumulated by
  /// TokenDictionary::CountDocument). Call again when the dictionary grew.
  void FitDictionary(const TokenDictionary& dict);

  /// Number of documents seen during the fit.
  size_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency of token `id`:
  /// log((1 + N) / (1 + df)) + 1. Ids beyond the fitted dictionary get the
  /// unseen-token (df = 0) smoothing, the largest IDF.
  double IdfById(uint32_t id) const;

  /// The document is `n` sorted unique token ids with term frequencies
  /// `tf` (raw counts); writes the L2-normalized TF-IDF weights to
  /// `weights` (length n).
  void TransformIds(const uint32_t* ids, const uint32_t* tf, size_t n,
                    double* weights) const;

 private:
  double IdfOfCount(double df) const;

  /// IDF by dictionary id, filled by FitDictionary.
  std::vector<double> idf_by_id_;
  size_t num_documents_ = 0;
};

}  // namespace humo::text
