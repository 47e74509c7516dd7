// Unit tests for the token dictionary and per-table token store: interning
// invariants, CSR view construction, the two-table TokenStores, and the
// sorted-unique / missing-value contracts the probe path depends on.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/feature.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/token_store.h"
#include "text/token_dictionary.h"
#include "text/tokenize.h"
#include "workload/generator.h"

namespace falcon {
namespace {

// --- TokenDictionary -----------------------------------------------------------

TEST(TokenDictionaryTest, InternAssignsDenseIdsAndCountsFrequency) {
  TokenDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  TokenId a = dict.Intern("alpha");
  TokenId b = dict.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(dict.Intern("alpha"), a);  // stable on re-intern
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Frequency(a), 2u);
  EXPECT_EQ(dict.Frequency(b), 1u);
  EXPECT_EQ(dict.Text(a), "alpha");
  EXPECT_EQ(dict.Text(b), "beta");
}

TEST(TokenDictionaryTest, FindDoesNotIntern) {
  TokenDictionary dict;
  TokenId id;
  EXPECT_FALSE(dict.Find("ghost", &id));
  EXPECT_EQ(dict.size(), 0u);
  TokenId g = dict.Intern("ghost");
  ASSERT_TRUE(dict.Find("ghost", &id));
  EXPECT_EQ(id, g);
  EXPECT_EQ(dict.Frequency(g), 1u);  // Find must not bump the count
}

TEST(TokenDictionaryTest, TextPointersStableAcrossGrowth) {
  TokenDictionary dict;
  std::string_view first = dict.Text(dict.Intern("first"));
  for (int i = 0; i < 5000; ++i) dict.Intern("tok" + std::to_string(i));
  EXPECT_EQ(first, "first");  // deque storage: no reallocation of texts
  TokenId id;
  ASSERT_TRUE(dict.Find("first", &id));
  EXPECT_EQ(id, 0u);
}

// --- TokenStore ----------------------------------------------------------------

Table FixtureTable() {
  Table t(Schema({{"name", AttrType::kString}}));
  EXPECT_TRUE(t.AppendRow({"red blue red"}).ok());   // dup token collapses
  EXPECT_TRUE(t.AppendRow({""}).ok());               // missing -> empty set
  EXPECT_TRUE(t.AppendRow({"blue green"}).ok());
  EXPECT_TRUE(t.AppendRow({"---"}).ok());            // tokenizes to nothing
  return t;
}

TEST(TokenStoreTest, EnsureViewBuildsSortedUniqueSets) {
  Table t = FixtureTable();
  TokenDictionary dict;
  TokenStore store(&t, &dict);
  EXPECT_EQ(store.view(0, Tokenization::kWord), nullptr);
  const TokenSetView& v = store.EnsureView(0, Tokenization::kWord);
  EXPECT_EQ(store.view(0, Tokenization::kWord), &v);
  ASSERT_EQ(v.num_rows(), 4u);

  auto row0 = v.row(0);
  ASSERT_EQ(row0.size(), 2u);  // {red, blue}, dup removed
  EXPECT_LT(row0[0], row0[1]);  // ascending by id
  EXPECT_TRUE(v.row(1).empty());
  EXPECT_TRUE(v.row(3).empty());
  ASSERT_EQ(v.row(2).size(), 2u);

  // Ids round-trip through the dictionary to the expected strings.
  TokenId blue;
  ASSERT_TRUE(dict.Find("blue", &blue));
  EXPECT_TRUE(row0[0] == blue || row0[1] == blue);
  EXPECT_TRUE(v.row(2)[0] == blue || v.row(2)[1] == blue);

  // The view equals what Tokenize+ToTokenSet produce, token by token.
  for (RowId r = 0; r < t.num_rows(); ++r) {
    auto expect = ToTokenSet(Tokenize(t.Get(r, 0), Tokenization::kWord));
    auto ids = v.row(r);
    ASSERT_EQ(ids.size(), expect.size()) << "row " << r;
    std::vector<std::string> got;
    for (TokenId id : ids) got.emplace_back(dict.Text(id));
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "row " << r;
  }
}

TEST(TokenStoreTest, RebuildAssignsIdenticalIds) {
  Table t = FixtureTable();
  TokenDictionary d1, d2;
  TokenStore first(&t, &d1);
  TokenStore again(&t, &d2);
  const TokenSetView& v1 = first.EnsureView(0, Tokenization::kQgram3);
  const TokenSetView& v2 = again.EnsureView(0, Tokenization::kQgram3);
  ASSERT_EQ(v1.num_rows(), v2.num_rows());
  ASSERT_EQ(v1.num_ids(), v2.num_ids());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    auto a = v1.row(r);
    auto b = v2.row(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (size_t i = 0; i < a.size(); ++i) {
      // Same interning order -> identical ids in both dicts.
      EXPECT_EQ(a[i], b[i]) << "row " << r << " pos " << i;
    }
  }
  // Ensuring a built view again returns it without rebuilding.
  EXPECT_EQ(&first.EnsureView(0, Tokenization::kQgram3), &v1);
  EXPECT_EQ(d1.size(), d2.size());
}

TEST(TokenStoreTest, ViewsAreKeyedByColumnAndTokenization) {
  Table t = FixtureTable();
  TokenDictionary dict;
  TokenStore store(&t, &dict);
  store.EnsureView(0, Tokenization::kWord);
  EXPECT_EQ(store.view(0, Tokenization::kQgram3), nullptr);
  store.EnsureView(0, Tokenization::kQgram3);
  EXPECT_NE(store.view(0, Tokenization::kQgram3), nullptr);
  EXPECT_NE(store.view(0, Tokenization::kWord),
            store.view(0, Tokenization::kQgram3));
  EXPECT_GT(store.MemoryUsage(), 0u);
  EXPECT_GT(dict.MemoryUsage(), 0u);
}

// --- TokenStores ---------------------------------------------------------------

TEST(TokenStoresTest, SidesShareOneDictionary) {
  Table a = FixtureTable();
  Table b(Schema({{"name", AttrType::kString}}));
  ASSERT_TRUE(b.AppendRow({"green red"}).ok());
  TokenStores stores(&a, &b);
  const TokenStores::Key ka{false, 0, Tokenization::kWord};
  const TokenStores::Key kb{true, 0, Tokenization::kWord};
  EXPECT_EQ(stores.view(ka), nullptr);
  stores.Build(ka);
  stores.Build(kb);
  stores.Build(kb);  // idempotent
  ASSERT_NE(stores.view(ka), nullptr);
  ASSERT_NE(stores.view(kb), nullptr);
  EXPECT_EQ(stores.view(ka), stores.a().view(0, Tokenization::kWord));
  EXPECT_EQ(stores.view(kb), stores.b().view(0, Tokenization::kWord));
  // {red, blue, green} across both tables: B's tokens reuse A's ids.
  EXPECT_EQ(stores.dict().size(), 3u);
  TokenId red, green;
  ASSERT_TRUE(stores.dict().Find("red", &red));
  ASSERT_TRUE(stores.dict().Find("green", &green));
  auto row = stores.view(kb)->row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_TRUE((row[0] == red && row[1] == green) ||
              (row[0] == green && row[1] == red));
  EXPECT_GE(stores.MemoryUsage(),
            stores.dict().MemoryUsage() + stores.a().MemoryUsage());
}

// The feature set names exactly the views its set-based features read, plus
// the 3-gram views of Levenshtein features, on both sides; once handed the
// stores, every such feature resolves both views and no other feature any.
TEST(TokenStoresTest, FeatureSetKeysCoverEveryTokenFeature) {
  WorkloadOptions opt;
  opt.size_a = 40;
  opt.size_b = 30;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);
  std::set<TokenStores::Key> keys;
  for (const auto& k : fs.TokenStoreKeys()) keys.insert(k);
  bool saw_lev = false;
  for (const Feature& f : fs.features()) {
    if (f.fn == SimFunction::kLevenshtein) {
      saw_lev = true;
      EXPECT_TRUE(keys.count({false, f.col_a, Tokenization::kQgram3}));
      EXPECT_TRUE(keys.count({true, f.col_b, Tokenization::kQgram3}));
    } else if (IsSetBased(f.fn)) {
      EXPECT_TRUE(keys.count({false, f.col_a, f.tok})) << f.name;
      EXPECT_TRUE(keys.count({true, f.col_b, f.tok})) << f.name;
    }
    EXPECT_EQ(fs.token_views(f.id).a, nullptr);  // nothing handed over yet
  }
  EXPECT_TRUE(saw_lev);
  EXPECT_EQ(fs.token_stores(), nullptr);

  fs.BuildTokenStores(data.a, data.b);
  ASSERT_NE(fs.token_stores(), nullptr);
  for (const Feature& f : fs.features()) {
    const bool reads = IsSetBased(f.fn) || f.fn == SimFunction::kLevenshtein;
    EXPECT_EQ(fs.token_views(f.id).a != nullptr, reads) << f.name;
    EXPECT_EQ(fs.token_views(f.id).b != nullptr, reads) << f.name;
  }
}

}  // namespace
}  // namespace falcon
