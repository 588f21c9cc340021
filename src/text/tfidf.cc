#include "text/tfidf.h"

#include <cmath>

namespace humo::text {

double TfIdfModel::IdfOfCount(double df) const {
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

void TfIdfModel::FitDictionary(const TokenDictionary& dict) {
  num_documents_ = dict.num_documents();
  const std::vector<uint32_t>& df = dict.doc_freq();
  idf_by_id_.resize(df.size());
  for (size_t id = 0; id < df.size(); ++id) {
    idf_by_id_[id] = IdfOfCount(static_cast<double>(df[id]));
  }
}

double TfIdfModel::IdfById(uint32_t id) const {
  if (id < idf_by_id_.size()) return idf_by_id_[id];
  return IdfOfCount(0.0);
}

void TfIdfModel::TransformIds(const uint32_t* ids, const uint32_t* tf,
                              size_t n, double* weights) const {
  double norm_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(tf[i]) * IdfById(ids[i]);
    weights[i] = w;
    norm_sq += w * w;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (size_t i = 0; i < n; ++i) weights[i] *= inv;
  }
}

}  // namespace humo::text
