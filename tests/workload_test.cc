#include <gtest/gtest.h>

#include "rules/feature.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {
namespace {

TEST(PerturbTest, TypoChangesStringModestly) {
  Rng rng(5);
  std::string s = "electronics";
  for (int i = 0; i < 50; ++i) {
    std::string t = ApplyTypo(s, &rng);
    EXPECT_LE(t.size(), s.size() + 1);
    EXPECT_GE(t.size() + 1, s.size());
  }
  EXPECT_EQ(ApplyTypo("", &rng), "");
}

TEST(PerturbTest, ZeroStrengthIsIdentityLike) {
  Rng rng(5);
  std::string s = "alpha beta gamma";
  EXPECT_EQ(PerturbText(s, 0.0, &rng), s);
}

TEST(PerturbTest, NeverEmptiesText) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(PerturbText("word", 1.0, &rng).empty());
  }
}

TEST(VocabularyTest, DeterministicAndUnique) {
  Vocabulary v1(500, 9);
  Vocabulary v2(500, 9);
  ASSERT_EQ(v1.size(), 500u);
  for (size_t i = 0; i < 500; ++i) EXPECT_EQ(v1.word(i), v2.word(i));
  std::set<std::string> uniq;
  for (size_t i = 0; i < 500; ++i) uniq.insert(v1.word(i));
  EXPECT_EQ(uniq.size(), 500u);
}

TEST(VocabularyTest, ZipfSkew) {
  Vocabulary v(1000, 3);
  Rng rng(4);
  size_t low_rank = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::string& w = v.SampleZipf(&rng);
    // Identify rank by linear scan on a small prefix only.
    for (size_t r = 0; r < 100; ++r) {
      if (v.word(r) == w) {
        ++low_rank;
        break;
      }
    }
  }
  // Top 10% of ranks should absorb far more than 10% of draws (u^3 skew
  // puts ~46% of mass there).
  EXPECT_GT(static_cast<double>(low_rank) / n, 0.3);
}

class GeneratorParam
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorParam, ShapeAndTruthInvariants) {
  WorkloadOptions opt;
  opt.size_a = 300;
  opt.size_b = 700;
  opt.seed = 11;
  auto r = GenerateByName(GetParam(), opt);
  ASSERT_TRUE(r.ok());
  const GeneratedDataset& d = r.value();
  EXPECT_EQ(d.a.num_rows(), 300u);
  EXPECT_EQ(d.b.num_rows(), 700u);
  EXPECT_GT(d.truth.size(), 50u);  // match_fraction 0.5 over 300 A rows
  // Every truth pair references valid rows.
  for (uint64_t key : d.truth.keys()) {
    EXPECT_LT(static_cast<RowId>(key >> 32), d.a.num_rows());
    EXPECT_LT(static_cast<RowId>(key & 0xFFFFFFFF), d.b.num_rows());
  }
  // Feature generation must find correspondences (same schema).
  auto fs = FeatureSet::Generate(d.a, d.b);
  EXPECT_GT(fs.blocking_ids().size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GeneratorParam,
                         ::testing::Values("products", "songs", "citations",
                                           "drugs"));

TEST(GeneratorTest, DeterministicForSeed) {
  WorkloadOptions opt;
  opt.size_a = 100;
  opt.size_b = 200;
  opt.seed = 21;
  auto d1 = GenerateSongs(opt);
  auto d2 = GenerateSongs(opt);
  ASSERT_EQ(d1.a.num_rows(), d2.a.num_rows());
  for (RowId r = 0; r < d1.a.num_rows(); ++r) {
    for (size_t c = 0; c < d1.a.num_cols(); ++c) {
      EXPECT_EQ(d1.a.Get(r, c), d2.a.Get(r, c));
    }
  }
  EXPECT_EQ(d1.truth.size(), d2.truth.size());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadOptions o1;
  o1.size_a = 100;
  o1.size_b = 200;
  o1.seed = 1;
  WorkloadOptions o2 = o1;
  o2.seed = 2;
  auto d1 = GenerateSongs(o1);
  auto d2 = GenerateSongs(o2);
  bool any_diff = false;
  for (RowId r = 0; r < 100 && !any_diff; ++r) {
    if (d1.a.Get(r, 0) != d2.a.Get(r, 0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, MatchingPairsAreTextuallyCloserThanRandom) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 400;
  auto d = GenerateCitations(opt);
  auto fs = FeatureSet::Generate(d.a, d.b);
  fs.BuildTokenStores(d.a, d.b);
  // Use jaccard over title as the probe feature.
  int title_feature = -1;
  for (const auto& f : fs.features()) {
    if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
        f.name.find("title") != std::string::npos) {
      title_feature = f.id;
      break;
    }
  }
  ASSERT_GE(title_feature, 0);
  double match_sim = 0.0;
  size_t match_n = 0;
  for (uint64_t key : d.truth.keys()) {
    RowId a = static_cast<RowId>(key >> 32);
    RowId b = static_cast<RowId>(key & 0xFFFFFFFF);
    double v = fs.Compute(title_feature, d.a, a, d.b, b);
    if (!std::isnan(v)) {
      match_sim += v;
      ++match_n;
    }
  }
  double random_sim = 0.0;
  size_t random_n = 0;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    RowId a = static_cast<RowId>(rng.NextBelow(d.a.num_rows()));
    RowId b = static_cast<RowId>(rng.NextBelow(d.b.num_rows()));
    if (d.truth.IsMatch(a, b)) continue;
    double v = fs.Compute(title_feature, d.a, a, d.b, b);
    if (!std::isnan(v)) {
      random_sim += v;
      ++random_n;
    }
  }
  ASSERT_GT(match_n, 0u);
  ASSERT_GT(random_n, 0u);
  EXPECT_GT(match_sim / match_n, random_sim / random_n + 0.3);
}

TEST(GeneratorTest, UnknownNameFails) {
  auto r = GenerateByName("nope", WorkloadOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- quality metrics -----------------------------------------------------------

TEST(QualityTest, PerfectPredictions) {
  GroundTruth truth;
  truth.Add(1, 2);
  truth.Add(3, 4);
  std::vector<CandidatePair> matches = {{1, 2}, {3, 4}};
  auto q = EvaluateMatches(matches, truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
}

TEST(QualityTest, PartialPredictions) {
  GroundTruth truth;
  truth.Add(1, 2);
  truth.Add(3, 4);
  truth.Add(5, 6);
  std::vector<CandidatePair> matches = {{1, 2}, {9, 9}};
  auto q = EvaluateMatches(matches, truth);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_NEAR(q.recall, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(q.true_positives, 1u);
}

TEST(QualityTest, EmptyPredictions) {
  GroundTruth truth;
  truth.Add(1, 2);
  auto q = EvaluateMatches({}, truth);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.f1, 0.0);
}

TEST(QualityTest, BlockingRecall) {
  GroundTruth truth;
  truth.Add(1, 2);
  truth.Add(3, 4);
  std::vector<CandidatePair> cands = {{1, 2}, {7, 8}, {9, 9}};
  EXPECT_DOUBLE_EQ(BlockingRecall(cands, truth), 0.5);
  GroundTruth empty;
  EXPECT_DOUBLE_EQ(BlockingRecall(cands, empty), 1.0);
}

}  // namespace
}  // namespace falcon
