// Property tests for the filter/probing layer: filters are NECESSARY
// conditions, so for any predicate p and any B-row b, the candidate set
// returned by ProbePredicate must contain every A-row a for which p(a, b)
// holds. Violations are silent recall loss — the worst failure mode a
// blocking system can have.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "mapreduce/cluster.h"
#include "workload/generator.h"

namespace falcon {
namespace {

struct ProbeFixture {
  GeneratedDataset data;
  FeatureSet fs;
  Cluster cluster{ClusterConfig{}};
  IndexCatalog catalog;

  ProbeFixture() {
    WorkloadOptions opt;
    opt.size_a = 220;
    opt.size_b = 150;
    opt.seed = 9;
    opt.missing_rate = 0.06;  // stress the missing-value paths
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
    fs.BuildTokenStores(data.a, data.b);
  }

  /// Finds a blocking feature by function (+ tokenization) and attribute.
  int FindFeature(SimFunction fn, const char* attr,
                  Tokenization tok = Tokenization::kWord) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  }

  void EnsureIndexFor(const Predicate& pred) {
    IndexBuilder builder(&data.a, &fs, &cluster);
    IndexNeed need = ClassifyPredicate(pred, fs);
    ASSERT_NE(need.kind, IndexKind::kNone);
    builder.Ensure({need}, &catalog);
  }

  /// Checks the necessary-condition property over every B row.
  void CheckSoundness(const Predicate& pred) {
    ClauseProber prober(&catalog, &fs, data.a.num_rows());
    size_t filtered_total = 0;
    size_t probes = 0;
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      CandidateSet cand = prober.ProbePredicate(pred, data.b, b);
      if (cand.all) continue;  // trivially sound
      ++probes;
      filtered_total += data.a.num_rows() - cand.rows.size();
      std::set<RowId> set(cand.rows.begin(), cand.rows.end());
      for (RowId a = 0; a < data.a.num_rows(); ++a) {
        double v = fs.Compute(pred.feature_id, data.a, a, data.b, b);
        bool holds = pred.Eval(v) || std::isnan(v);
        if (holds) {
          ASSERT_TRUE(set.count(a))
              << "filter dropped a satisfying pair: a=" << a << " b=" << b
              << " feature=" << fs.feature(pred.feature_id).name
              << " value=" << v;
        }
      }
    }
    // The filter must actually prune (otherwise the test is vacuous).
    EXPECT_GT(probes, 0u);
    EXPECT_GT(filtered_total, 0u);
  }
};

TEST(FilterSoundnessE2E, JaccardWordPrefix) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kJaccard, "(title,title)");
  ASSERT_GE(f, 0);
  for (double t : {0.3, 0.5, 0.8}) {
    Predicate pred{f, f, PredOp::kGt, t};
    fx.EnsureIndexFor(pred);
    fx.CheckSoundness(pred);
  }
}

TEST(FilterSoundnessE2E, Jaccard3gram) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kJaccard, "(brand,brand)",
                         Tokenization::kQgram3);
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.6};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, DiceWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kDice, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, CosineWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kCosine, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.45};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, OverlapWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kOverlap, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.6};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, Levenshtein3gram) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kLevenshtein, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.7};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, ExactMatchHash) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, AbsDiffRange) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kAbsDiff, "(price,price)");
  ASSERT_GE(f, 0);
  for (double t : {5.0, 50.0}) {
    Predicate pred{f, f, PredOp::kLe, t};
    fx.EnsureIndexFor(pred);
    fx.CheckSoundness(pred);
  }
}

TEST(FilterSoundnessE2E, RelDiffRange) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kRelDiff, "(price,price)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kLt, 0.1};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, MissingBValueYieldsAll) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  ClauseProber prober(&fx.catalog, &fx.fs, fx.data.a.num_rows());
  int col_b = fx.fs.feature(f).col_b;
  bool saw_missing = false;
  for (RowId b = 0; b < fx.data.b.num_rows(); ++b) {
    if (!fx.data.b.IsMissing(b, col_b)) continue;
    saw_missing = true;
    CandidateSet cand = prober.ProbePredicate(pred, fx.data.b, b);
    EXPECT_TRUE(cand.all) << "missing B value must not filter";
  }
  EXPECT_TRUE(saw_missing) << "fixture should contain missing brands";
}

TEST(FilterSoundnessE2E, MissingAValuesAlwaysCandidates) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  ClauseProber prober(&fx.catalog, &fx.fs, fx.data.a.num_rows());
  int col_a = fx.fs.feature(f).col_a;
  std::vector<RowId> missing_a;
  for (RowId a = 0; a < fx.data.a.num_rows(); ++a) {
    if (fx.data.a.IsMissing(a, col_a)) missing_a.push_back(a);
  }
  ASSERT_FALSE(missing_a.empty());
  for (RowId b = 0; b < std::min<RowId>(fx.data.b.num_rows(), 20); ++b) {
    CandidateSet cand = prober.ProbePredicate(pred, fx.data.b, b);
    if (cand.all) continue;
    std::set<RowId> set(cand.rows.begin(), cand.rows.end());
    for (RowId a : missing_a) {
      EXPECT_TRUE(set.count(a))
          << "A-row with missing value must stay a candidate";
    }
  }
}

// Second operator-equivalence sweep with a rule sequence exercising the
// remaining filter paths: dice_3gram, cosine_word, overlap_word,
// levenshtein, rel_diff.
TEST(ApplyEquivalenceWideRules, AllOperatorsMatchBruteForce) {
  WorkloadOptions opt;
  opt.size_a = 180;
  opt.size_b = 420;
  opt.seed = 17;
  opt.missing_rate = 0.05;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);
  fs.BuildTokenStores(data.a, data.b);

  auto find = [&](SimFunction fn, const char* attr, Tokenization tok) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  };
  int dice3 = find(SimFunction::kDice, "(brand,brand)",
                   Tokenization::kQgram3);
  int cos = find(SimFunction::kCosine, "(title,title)", Tokenization::kWord);
  int ovl = find(SimFunction::kOverlap, "(descr,descr)",
                 Tokenization::kWord);
  int lev = find(SimFunction::kLevenshtein, "(modelno,modelno)",
                 Tokenization::kQgram3);
  int rel = find(SimFunction::kRelDiff, "(price,price)",
                 Tokenization::kWord);
  ASSERT_GE(dice3, 0);
  ASSERT_GE(cos, 0);
  ASSERT_GE(ovl, 0);
  ASSERT_GE(lev, 0);
  ASSERT_GE(rel, 0);

  RuleSequence seq;
  {
    Rule r;  // weak brand similarity AND prices far apart (relatively)
    r.predicates = {{dice3, dice3, PredOp::kLt, 0.55},
                    {rel, rel, PredOp::kGe, 0.08}};
    r.selectivity = 0.2;
    seq.rules.push_back(r);
  }
  {
    Rule r;  // dissimilar titles AND dissimilar descriptions
    r.predicates = {{cos, cos, PredOp::kLe, 0.5},
                    {ovl, ovl, PredOp::kLe, 0.6}};
    r.selectivity = 0.1;
    seq.rules.push_back(r);
  }
  {
    Rule r;  // model numbers not even close
    r.predicates = {{lev, lev, PredOp::kLt, 0.6}};
    r.selectivity = 0.3;
    seq.rules.push_back(r);
  }
  seq.selectivity = 0.05;

  Cluster cluster{ClusterConfig{}};
  IndexCatalog catalog;
  IndexBuilder builder(&data.a, &fs, &cluster);
  builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);

  RuleApplier applier(seq, &fs, &data.a, &data.b);
  std::set<uint64_t> expected;
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      if (applier.Keep(a, b)) {
        expected.insert((static_cast<uint64_t>(a) << 32) | b);
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), data.a.num_rows() * data.b.num_rows());

  for (ApplyMethod m :
       {ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
        ApplyMethod::kApplyConjunct, ApplyMethod::kApplyPredicate,
        ApplyMethod::kMapSide, ApplyMethod::kReduceSplit}) {
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog,
                                  &cluster, m, ApplyOptions{});
    ASSERT_TRUE(res.ok()) << ApplyMethodName(m) << ": "
                          << res.status().ToString();
    std::set<uint64_t> got;
    for (auto [a, b] : res->pairs) {
      got.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    EXPECT_EQ(got, expected) << ApplyMethodName(m);
  }
}

// --- Dictionary-encoded path vs the string oracle ---------------------------
//
// Features and probes run on interned token ids only. The string overloads of
// text/similarity.h and Tokenize/ToTokenSet are the oracle they must match,
// over several generators' tables, with missing values and values that
// tokenize to nothing.

/// `t` with the string attributes of every 7th row replaced by punctuation,
/// which word-tokenizes to nothing (and 3-gram-tokenizes to padding grams).
Table WithUntokenizableValues(const Table& t) {
  Table out(t.schema());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < t.num_cols(); ++c) {
      const bool blank = r % 7 == 3 && !t.IsMissing(r, c) &&
                         t.schema().attr(c).type == AttrType::kString;
      row.emplace_back(blank ? "-- !!" : std::string(t.Get(r, c)));
    }
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

struct OracleTables {
  std::string name;
  Table a;
  Table b;
};

std::vector<OracleTables> OracleDatasets(size_t size_a, size_t size_b) {
  std::vector<OracleTables> out;
  for (const char* name : {"products", "songs", "citations"}) {
    WorkloadOptions opt;
    opt.size_a = size_a;
    opt.size_b = size_b;
    opt.seed = 21;
    opt.missing_rate = 0.08;
    auto data = GenerateByName(name, opt);
    EXPECT_TRUE(data.ok()) << name;
    out.push_back({name, WithUntokenizableValues(data->a),
                   WithUntokenizableValues(data->b)});
  }
  return out;
}

/// The string oracle's token set of one cell (empty when missing).
std::vector<std::string> OracleTokens(const Table& t, RowId r, int col,
                                      Tokenization tok) {
  if (t.IsMissing(r, col)) return {};
  return ToTokenSet(Tokenize(t.Get(r, col), tok));
}

double OracleSetSim(SimFunction fn, const std::vector<std::string>& x,
                    const std::vector<std::string>& y) {
  switch (fn) {
    case SimFunction::kJaccard:
      return JaccardSim(x, y);
    case SimFunction::kDice:
      return DiceSim(x, y);
    case SimFunction::kOverlap:
      return OverlapSim(x, y);
    default:
      return CosineSim(x, y);
  }
}

// Every row of every view holds exactly the string oracle's token set, and
// probes are sound against the string similarities: every A-row whose pair
// satisfies the predicate (or is missing) is a candidate. A second store
// interning the views in reverse order (different ids) must probe
// byte-identically — same rows, same order.
TEST(DictEncodedEquivalence, StoreProbesMatchStringOracle) {
  for (const OracleTables& d : OracleDatasets(160, 120)) {
    SCOPED_TRACE(d.name);
    auto fs = FeatureSet::Generate(d.a, d.b);
    fs.BuildTokenStores(d.a, d.b);
    auto reversed = FeatureSet::Generate(d.a, d.b);
    {
      auto stores = std::make_unique<TokenStores>(&d.a, &d.b);
      auto keys = reversed.TokenStoreKeys();
      for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
        stores->Build(*it);
      }
      reversed.SetTokenStores(std::move(stores));
    }

    const TokenStores& stores = *fs.token_stores();
    for (const TokenStores::Key& key : fs.TokenStoreKeys()) {
      const Table& t = key.side_b ? d.b : d.a;
      const TokenSetView* view = stores.view(key);
      ASSERT_NE(view, nullptr);
      for (RowId r = 0; r < t.num_rows(); ++r) {
        std::vector<std::string> got;
        for (TokenId id : view->row(r)) {
          got.emplace_back(stores.dict().Text(id));
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, OracleTokens(t, r, key.col, key.tok))
            << "col " << key.col << " row " << r;
      }
    }

    Cluster cluster{ClusterConfig{}};
    IndexCatalog catalog;
    IndexCatalog rev_catalog;
    IndexBuilder builder(&d.a, &fs, &cluster);
    IndexBuilder rev_builder(&d.a, &reversed, &cluster);
    std::vector<Predicate> preds;
    for (const Feature& f : fs.features()) {
      if (!f.usable_for_blocking ||
          (!IsSetBased(f.fn) && f.fn != SimFunction::kLevenshtein)) {
        continue;
      }
      // 0.7: above 2/3 the one-shared-3-gram Levenshtein filter is sound
      // for every string length.
      Predicate pred{f.id, f.id, PredOp::kGe, 0.7};
      ASSERT_EQ(ClassifyPredicate(pred, fs).kind, IndexKind::kToken);
      builder.Ensure({ClassifyPredicate(pred, fs)}, &catalog);
      rev_builder.Ensure({ClassifyPredicate(pred, reversed)}, &rev_catalog);
      preds.push_back(pred);
    }
    ASSERT_FALSE(preds.empty());

    ClauseProber prober(&catalog, &fs, d.a.num_rows());
    ClauseProber rev_prober(&rev_catalog, &reversed, d.a.num_rows());
    size_t pruned = 0;
    for (const Predicate& pred : preds) {
      const Feature& f = fs.feature(pred.feature_id);
      const Tokenization tok = IsSetBased(f.fn) ? f.tok : Tokenization::kQgram3;
      std::vector<std::vector<std::string>> a_tokens(d.a.num_rows());
      for (RowId a = 0; a < d.a.num_rows(); ++a) {
        a_tokens[a] = OracleTokens(d.a, a, f.col_a, tok);
      }
      for (RowId b = 0; b < d.b.num_rows(); ++b) {
        CandidateSet cand = prober.ProbePredicate(pred, d.b, b);
        CandidateSet rev = rev_prober.ProbePredicate(pred, d.b, b);
        ASSERT_EQ(cand.all, rev.all) << f.name << " b=" << b;
        ASSERT_EQ(cand.rows, rev.rows) << f.name << " b=" << b;
        if (cand.all) continue;
        pruned += d.a.num_rows() - cand.rows.size();
        std::set<RowId> got(cand.rows.begin(), cand.rows.end());
        ASSERT_EQ(got.size(), cand.rows.size()) << "duplicate candidates";
        const auto y = OracleTokens(d.b, b, f.col_b, tok);
        for (RowId a = 0; a < d.a.num_rows(); ++a) {
          if (d.a.IsMissing(a, f.col_a)) {
            ASSERT_TRUE(got.count(a)) << f.name << " missing a=" << a;
            continue;
          }
          const double sim =
              IsSetBased(f.fn)
                  ? OracleSetSim(f.fn, a_tokens[a], y)
                  : LevenshteinSim(d.a.Get(a, f.col_a), d.b.Get(b, f.col_b));
          if (pred.Eval(sim)) {
            ASSERT_TRUE(got.count(a))
                << f.name << " dropped a satisfying pair a=" << a
                << " b=" << b << " sim=" << sim;
          }
        }
      }
    }
    EXPECT_GT(pruned, 0u) << "the filters must prune something";
  }
}

// Set-based features computed over the token stores equal the string
// oracle's values exactly — NaN for missing values, and the string value
// for values that tokenize to nothing.
TEST(DictEncodedEquivalence, BoundFeatureComputeMatchesStringPath) {
  for (const OracleTables& d : OracleDatasets(70, 60)) {
    SCOPED_TRACE(d.name);
    auto fs = FeatureSet::Generate(d.a, d.b);
    fs.BuildTokenStores(d.a, d.b);
    size_t nan_count = 0;
    size_t empty_count = 0;
    size_t checked = 0;
    for (const Feature& f : fs.features()) {
      if (!IsSetBased(f.fn)) continue;
      for (RowId a = 0; a < d.a.num_rows(); ++a) {
        const auto x = OracleTokens(d.a, a, f.col_a, f.tok);
        for (RowId b = 0; b < d.b.num_rows(); ++b) {
          const double got = fs.Compute(f.id, d.a, a, d.b, b);
          ++checked;
          if (d.a.IsMissing(a, f.col_a) || d.b.IsMissing(b, f.col_b)) {
            ++nan_count;
            ASSERT_TRUE(std::isnan(got)) << f.name << " a=" << a << " b=" << b;
            continue;
          }
          const auto y = OracleTokens(d.b, b, f.col_b, f.tok);
          if (x.empty() || y.empty()) ++empty_count;
          ASSERT_EQ(got, OracleSetSim(f.fn, x, y))  // exact, not approximate
              << f.name << " a=" << a << " b=" << b;
        }
      }
    }
    EXPECT_GT(checked, 0u);
    EXPECT_GT(nan_count, 0u) << "fixture should exercise missing values";
    EXPECT_GT(empty_count, 0u) << "fixture should exercise empty token sets";
  }
}

// Concurrent probing against one shared read-only store: every thread reads
// the same dictionary/store/bundles with zero locking. Run under
// FALCON_SANITIZE=thread this is the data-race regression test for the
// dictionary-encoded path.
TEST(DictEncodedEquivalence, ParallelApplyMatchesSerialWithStores) {
  WorkloadOptions opt;
  opt.size_a = 150;
  opt.size_b = 200;
  opt.seed = 33;
  opt.missing_rate = 0.05;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);
  fs.BuildTokenStores(data.a, data.b);

  auto find = [&](SimFunction fn, const char* attr, Tokenization tok) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  };
  int jac = find(SimFunction::kJaccard, "(title,title)", Tokenization::kWord);
  int dice3 =
      find(SimFunction::kDice, "(brand,brand)", Tokenization::kQgram3);
  ASSERT_GE(jac, 0);
  ASSERT_GE(dice3, 0);
  RuleSequence seq;
  Rule r;
  r.predicates = {{jac, jac, PredOp::kLt, 0.45},
                  {dice3, dice3, PredOp::kLt, 0.6}};
  r.selectivity = 0.2;
  seq.rules.push_back(r);
  seq.selectivity = 0.2;

  auto run = [&](int threads) {
    ClusterConfig cfg;
    cfg.local_threads = threads;
    Cluster cluster{cfg};
    IndexCatalog catalog;
    IndexBuilder builder(&data.a, &fs, &cluster);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  ApplyMethod::kApplyPredicate,
                                  ApplyOptions{});
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    auto pairs = res->pairs;
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  auto serial = run(1);
  auto wide = run(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace falcon
