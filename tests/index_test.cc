#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/length_index.h"
#include "index/token_ordering.h"
#include "table/table.h"

namespace falcon {
namespace {

// --- TokenOrdering -------------------------------------------------------------

/// Interns `counts` in order and returns the ordering over their
/// frequencies; `ids` receives each token's id.
TokenOrdering OrderingOf(
    TokenDictionary* dict,
    const std::vector<std::pair<std::string, uint64_t>>& counts,
    std::map<std::string, TokenId>* ids) {
  for (const auto& [token, count] : counts) (*ids)[token] = dict->Intern(token);
  std::vector<uint64_t> freq(dict->size(), 0);
  for (const auto& [token, count] : counts) freq[(*ids)[token]] = count;
  return TokenOrdering::FromIdFrequencies(dict, freq);
}

TEST(TokenOrderingTest, RareFirst) {
  TokenDictionary dict;
  std::map<std::string, TokenId> id;
  auto ord = OrderingOf(
      &dict, {{"common", 100}, {"mid", 10}, {"rare", 1}, {"unseen", 0}}, &id);
  uint32_t r_rare, r_mid, r_common;
  ASSERT_TRUE(ord.RankId(id["rare"], &r_rare));
  ASSERT_TRUE(ord.RankId(id["mid"], &r_mid));
  ASSERT_TRUE(ord.RankId(id["common"], &r_common));
  EXPECT_LT(r_rare, r_mid);
  EXPECT_LT(r_mid, r_common);
  EXPECT_EQ(ord.size(), 3u);
  // Zero-frequency and out-of-range ids are unranked.
  uint32_t dummy;
  EXPECT_FALSE(ord.RankId(id["unseen"], &dummy));
  EXPECT_FALSE(ord.RankId(999, &dummy));
}

TEST(TokenOrderingTest, TiesBrokenLexicographically) {
  TokenDictionary dict;
  std::map<std::string, TokenId> id;
  // "b" is interned first, so it has the smaller id; text decides the tie.
  auto ord = OrderingOf(&dict, {{"b", 5}, {"a", 5}}, &id);
  uint32_t ra, rb;
  ASSERT_TRUE(ord.RankId(id["a"], &ra));
  ASSERT_TRUE(ord.RankId(id["b"], &rb));
  EXPECT_LT(ra, rb);
}

TEST(TokenOrderingTest, SortPutsUnknownFirst) {
  TokenDictionary dict;
  std::map<std::string, TokenId> id;
  auto ord = OrderingOf(
      &dict, {{"y", 2}, {"zz_unseen", 0}, {"x", 1}, {"aa_unseen", 0}}, &id);
  std::vector<TokenId> ids = {id["y"], id["zz_unseen"], id["x"],
                              id["aa_unseen"]};
  ord.SortIds(&ids);
  // Unranked first (rarer than anything seen), among themselves by text.
  EXPECT_EQ(ids, (std::vector<TokenId>{id["aa_unseen"], id["zz_unseen"],
                                       id["x"], id["y"]}));
}

// The id-based ordering must reproduce the string ordering exactly: rank
// ascending by frequency, frequency ties broken by token text — whatever
// order the ids were interned in.
TEST(TokenOrderingTest, FromIdFrequenciesMatchesStringOrdering) {
  // Interning order scrambled relative to both frequency and lex order.
  const std::vector<std::pair<std::string, uint64_t>> counts = {
      {"common", 100}, {"b_tie", 5}, {"rare", 1}, {"a_tie", 5}};
  TokenDictionary dict;
  std::map<std::string, TokenId> id;
  auto ord = OrderingOf(&dict, counts, &id);
  EXPECT_EQ(ord.size(), 4u);

  // The string oracle: sort (frequency, text) pairs.
  auto by_string = counts;
  std::sort(by_string.begin(), by_string.end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second < y.second;
              return x.first < y.first;
            });
  for (uint32_t want = 0; want < by_string.size(); ++want) {
    uint32_t got;
    ASSERT_TRUE(ord.RankId(id[by_string[want].first], &got));
    EXPECT_EQ(got, want) << by_string[want].first;
  }
}

TEST(TokenOrderingTest, SortIdsMatchesStringSort) {
  TokenDictionary dict;
  TokenId x = dict.Intern("x");
  TokenId y = dict.Intern("y");
  TokenId zz = dict.Intern("zz_unseen");
  std::vector<uint64_t> freq(dict.size(), 0);
  freq[x] = 1;
  freq[y] = 2;  // zz_unseen stays frequency 0 -> unranked
  auto ord = TokenOrdering::FromIdFrequencies(&dict, freq);
  std::vector<TokenId> ids = {y, zz, x};
  ord.SortIds(&ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{zz, x, y}));
}

// --- HashIndex ------------------------------------------------------------------

Table YearTable() {
  Table t(Schema({{"year", AttrType::kString}}));
  for (const char* y : {"1999", "2000", "1999", "", "2001"}) {
    EXPECT_TRUE(t.AppendRow({y}).ok());
  }
  return t;
}

TEST(HashIndexTest, ProbeFindsEqualRows) {
  Table t = YearTable();
  auto idx = HashIndex::Build(t, 0);
  auto rows = idx.Probe("1999");
  EXPECT_EQ(rows, (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(idx.Probe("1777").empty());
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{3}));
  EXPECT_EQ(idx.num_keys(), 3u);
}

TEST(HashIndexTest, NormalizesCaseAndWhitespace) {
  Table t(Schema({{"v", AttrType::kString}}));
  ASSERT_TRUE(t.AppendRow({"  Foo "}).ok());
  auto idx = HashIndex::Build(t, 0);
  EXPECT_EQ(idx.Probe("foo").size(), 1u);
  EXPECT_EQ(idx.Probe("FOO  ").size(), 1u);
}

// --- BTreeIndex -----------------------------------------------------------------

TEST(BTreeIndexTest, RangeProbeSmall) {
  Table t(Schema({{"price", AttrType::kNumeric}}));
  for (const char* p : {"10", "20", "30", "", "25"}) {
    ASSERT_TRUE(t.AppendRow({p}).ok());
  }
  auto idx = BTreeIndex::Build(t, 0);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{3}));
  std::vector<RowId> out;
  idx.ProbeRange(15, 27, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<RowId>{1, 4}));
  EXPECT_EQ(idx.ProbeEqual(30), (std::vector<RowId>{2}));
  EXPECT_TRUE(idx.ProbeEqual(99).empty());
}

TEST(BTreeIndexTest, EmptyRange) {
  BTreeIndex idx;
  std::vector<RowId> out;
  idx.ProbeRange(0, 100, &out);
  EXPECT_TRUE(out.empty());
  idx.Insert(5.0, 1);
  idx.ProbeRange(10, 0, &out);  // inverted range
  EXPECT_TRUE(out.empty());
}

TEST(BTreeIndexTest, ManyInsertsMatchReferenceAndKeepInvariants) {
  Rng rng(42);
  BTreeIndex idx;
  std::multimap<double, RowId> ref;
  for (RowId i = 0; i < 5000; ++i) {
    double key = static_cast<double>(rng.NextBelow(1000));
    idx.Insert(key, i);
    ref.emplace(key, i);
  }
  ASSERT_TRUE(idx.CheckInvariants());
  EXPECT_EQ(idx.size(), 5000u);
  EXPECT_GT(idx.height(), 2u);  // splits exercised
  for (int trial = 0; trial < 50; ++trial) {
    double lo = static_cast<double>(rng.NextBelow(1000));
    double hi = lo + static_cast<double>(rng.NextBelow(100));
    std::vector<RowId> got;
    idx.ProbeRange(lo, hi, &got);
    std::vector<RowId> expected;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expected.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
  }
}

TEST(BTreeIndexTest, DuplicateKeysAllReturned) {
  BTreeIndex idx;
  for (RowId i = 0; i < 200; ++i) idx.Insert(7.0, i);
  auto rows = idx.ProbeEqual(7.0);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_TRUE(idx.CheckInvariants());
}

TEST(BTreeIndexTest, AscendingAndDescendingInsertions) {
  for (bool ascending : {true, false}) {
    BTreeIndex idx;
    for (int i = 0; i < 2000; ++i) {
      double key = ascending ? i : 2000 - i;
      idx.Insert(key, static_cast<RowId>(i));
    }
    EXPECT_TRUE(idx.CheckInvariants());
    std::vector<RowId> out;
    idx.ProbeRange(-1e9, 1e9, &out);
    EXPECT_EQ(out.size(), 2000u);
  }
}

TEST(BTreeIndexTest, MemoryUsageGrows) {
  BTreeIndex idx;
  size_t before = idx.MemoryUsage();
  for (RowId i = 0; i < 1000; ++i) idx.Insert(i, i);
  EXPECT_GT(idx.MemoryUsage(), before);
}

// --- LengthIndex ------------------------------------------------------------------

TEST(LengthIndexTest, ProbeRangeClamps) {
  LengthIndex idx;
  idx.Add(3, 0);
  idx.Add(5, 1);
  idx.Add(5, 2);
  idx.Add(0, 3);  // missing
  std::vector<RowId> out;
  idx.ProbeRange(-10, 4, &out);
  EXPECT_EQ(out, (std::vector<RowId>{0}));
  out.clear();
  idx.ProbeRange(5, 100, &out);
  EXPECT_EQ(out, (std::vector<RowId>{1, 2}));
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{3}));
  EXPECT_EQ(idx.LengthOf(1), 5u);
  EXPECT_EQ(idx.LengthOf(3), 0u);
  EXPECT_EQ(idx.max_length(), 5u);
}

// --- InvertedIndex ------------------------------------------------------------------

TEST(InvertedIndexTest, PostingsCarryPositionAndSize) {
  InvertedIndex idx;
  const TokenId rare = 4, mid = 2, absent = 7;
  const std::vector<TokenId> prefix = {rare, mid};
  idx.AddPrefix(7, prefix, 10);
  idx.AddMissing(9);
  idx.Finalize();
  const auto p = idx.Probe(mid);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].row, 7u);
  EXPECT_EQ(p[0].position, 1u);
  EXPECT_EQ(idx.set_size(7), 10u);
  EXPECT_EQ(idx.set_size(9), 0u);     // missing row: never AddPrefix'd
  EXPECT_EQ(idx.set_size(1000), 0u);  // past the staged range
  EXPECT_TRUE(idx.Probe(absent).empty());
  // Probing past the posting table's end is an empty list too.
  EXPECT_TRUE(idx.Probe(1000).empty());
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{9}));
  EXPECT_EQ(idx.num_tokens(), 2u);
  EXPECT_EQ(idx.num_postings(), 2u);
}

}  // namespace
}  // namespace falcon
