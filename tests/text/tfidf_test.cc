#include "text/tfidf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "text/simd_similarity.h"
#include "text/token_dictionary.h"

namespace humo::text {
namespace {

/// A document as the id path sees it: sorted unique ids, raw term
/// frequencies, and the L2-normalized TF-IDF weights.
struct IdDoc {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> tf;
  std::vector<double> weights;

  double WeightOf(uint32_t id) const {
    const auto it = std::find(ids.begin(), ids.end(), id);
    return it == ids.end() ? 0.0 : weights[it - ids.begin()];
  }
};

/// Dictionary and model fitted on a three-document corpus.
class TfIdfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::vector<std::string>> corpus = {
        {"entity", "resolution", "survey"},
        {"entity", "matching", "rules"},
        {"stream", "processing", "engine"}};
    for (const auto& doc : corpus) {
      std::vector<uint32_t> ids;
      for (const auto& t : doc) ids.push_back(dict_.Intern(t));
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      dict_.CountDocument(ids.data(), ids.size());
    }
    model_.FitDictionary(dict_);
  }

  uint32_t Id(const std::string& token) const { return dict_.IdOf(token); }

  IdDoc Transform(const std::vector<std::string>& tokens) const {
    std::map<uint32_t, uint32_t> counts;
    for (const auto& t : tokens) ++counts[Id(t)];
    IdDoc doc;
    for (const auto& [id, tf] : counts) {
      doc.ids.push_back(id);
      doc.tf.push_back(tf);
    }
    doc.weights.resize(doc.ids.size());
    model_.TransformIds(doc.ids.data(), doc.tf.data(), doc.ids.size(),
                        doc.weights.data());
    return doc;
  }

  static double Cosine(const IdDoc& a, const IdDoc& b) {
    return IdWeightedDot(a.ids.data(), a.weights.data(), a.ids.size(),
                         b.ids.data(), b.weights.data(), b.ids.size());
  }

  TokenDictionary dict_;
  TfIdfModel model_;
};

TEST_F(TfIdfTest, FitCountsDocuments) {
  EXPECT_EQ(model_.num_documents(), 3u);
}

TEST_F(TfIdfTest, RareTokensWeighMore) {
  // "entity" appears in 2 docs, "survey" in 1: idf(survey) > idf(entity).
  EXPECT_GT(model_.IdfById(Id("survey")), model_.IdfById(Id("entity")));
}

TEST_F(TfIdfTest, UnknownTokenGetsMaxIdf) {
  // An id beyond the fitted dictionary gets the df = 0 smoothing.
  const uint32_t unseen = static_cast<uint32_t>(dict_.size());
  EXPECT_GT(model_.IdfById(unseen), model_.IdfById(Id("survey")));
}

TEST_F(TfIdfTest, TransformIsL2Normalized) {
  const IdDoc v = Transform({"entity", "resolution", "survey"});
  double norm_sq = 0.0;
  for (double w : v.weights) norm_sq += w * w;
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

TEST_F(TfIdfTest, EmptyDocumentTransformsToEmptyVector) {
  const IdDoc empty = Transform({});
  EXPECT_TRUE(empty.weights.empty());
  EXPECT_EQ(Cosine(empty, empty), 0.0);
  EXPECT_EQ(Cosine(empty, Transform({"entity"})), 0.0);
}

TEST_F(TfIdfTest, CosineSelfSimilarityIsOne) {
  const IdDoc v = Transform({"entity", "matching"});
  EXPECT_NEAR(Cosine(v, v), 1.0, 1e-12);
}

TEST_F(TfIdfTest, CosineDisjointIsZero) {
  const IdDoc a = Transform({"entity"});
  const IdDoc b = Transform({"stream"});
  EXPECT_DOUBLE_EQ(Cosine(a, b), 0.0);
}

TEST_F(TfIdfTest, CosineOrdersByOverlap) {
  const IdDoc q = Transform({"entity", "resolution"});
  const IdDoc close = Transform({"entity", "resolution", "survey"});
  const IdDoc far = Transform({"stream", "processing"});
  EXPECT_GT(Cosine(q, close), Cosine(q, far));
}

TEST_F(TfIdfTest, TermFrequencyMatters) {
  const IdDoc once = Transform({"entity", "stream"});
  const IdDoc twice = Transform({"entity", "entity", "stream"});
  // Repeating "entity" shifts weight toward it.
  EXPECT_GT(twice.WeightOf(Id("entity")), once.WeightOf(Id("entity")));
}

}  // namespace
}  // namespace humo::text
