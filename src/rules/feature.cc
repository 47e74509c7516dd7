#include "rules/feature.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <limits>
#include <set>

#include "common/arena.h"
#include "common/strings.h"

namespace falcon {
namespace {

struct FeatureTemplate {
  SimFunction fn;
  Tokenization tok;
  bool blocking;
};

// Figure 5 rows. The starred functions are matcher-only.
std::vector<FeatureTemplate> TemplatesFor(AttrCharacteristic c,
                                          bool include_matcher_only) {
  std::vector<FeatureTemplate> out;
  auto add = [&](SimFunction fn, Tokenization tok, bool blocking) {
    if (blocking || include_matcher_only) out.push_back({fn, tok, blocking});
  };
  switch (c) {
    case AttrCharacteristic::kSingleWordString:
      add(SimFunction::kExactMatch, Tokenization::kWord, true);
      add(SimFunction::kJaccard, Tokenization::kQgram3, true);
      add(SimFunction::kOverlap, Tokenization::kQgram3, true);
      add(SimFunction::kDice, Tokenization::kQgram3, true);
      add(SimFunction::kLevenshtein, Tokenization::kQgram3, true);
      add(SimFunction::kJaro, Tokenization::kWord, false);
      add(SimFunction::kJaroWinkler, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kShortString:
      add(SimFunction::kJaccard, Tokenization::kQgram3, true);
      add(SimFunction::kOverlap, Tokenization::kQgram3, true);
      add(SimFunction::kDice, Tokenization::kQgram3, true);
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kMongeElkan, Tokenization::kWord, false);
      add(SimFunction::kNeedlemanWunsch, Tokenization::kWord, false);
      add(SimFunction::kSmithWaterman, Tokenization::kWord, false);
      add(SimFunction::kSmithWatermanGotoh, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kMediumString:
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kMongeElkan, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kLongString:
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kTfIdf, Tokenization::kWord, false);
      add(SimFunction::kSoftTfIdf, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kNumeric:
      add(SimFunction::kExactMatch, Tokenization::kWord, true);
      add(SimFunction::kAbsDiff, Tokenization::kWord, true);
      add(SimFunction::kRelDiff, Tokenization::kWord, true);
      add(SimFunction::kLevenshtein, Tokenization::kQgram3, true);
      break;
  }
  return out;
}

std::string FeatureName(const FeatureTemplate& t, const std::string& attr_a,
                        const std::string& attr_b) {
  std::string fn = SimFunctionName(t.fn);
  if (IsSetBased(t.fn) || t.fn == SimFunction::kLevenshtein) {
    fn += std::string("_") + TokenizationName(t.tok);
  }
  return fn + "(" + attr_a + "," + attr_b + ")";
}

}  // namespace

FeatureSet FeatureSet::Generate(const Table& a, const Table& b,
                                const FeatureGenOptions& options) {
  FeatureSet fs;
  auto prof_a = ProfileTable(a, options.profile);
  auto prof_b = ProfileTable(b, options.profile);

  // Attribute correspondences: equal names (case-insensitive) first.
  std::vector<std::pair<int, int>> pairs;
  for (size_t ca = 0; ca < prof_a.size(); ++ca) {
    for (size_t cb = 0; cb < prof_b.size(); ++cb) {
      if (ToLower(prof_a[ca].name) == ToLower(prof_b[cb].name)) {
        pairs.emplace_back(static_cast<int>(ca), static_cast<int>(cb));
        break;
      }
    }
  }
  if (pairs.empty()) {
    // Fall back to positional pairing of type-compatible attributes.
    size_t n = std::min(prof_a.size(), prof_b.size());
    for (size_t c = 0; c < n; ++c) {
      bool num_a = prof_a[c].characteristic == AttrCharacteristic::kNumeric;
      bool num_b = prof_b[c].characteristic == AttrCharacteristic::kNumeric;
      if (num_a == num_b) {
        pairs.emplace_back(static_cast<int>(c), static_cast<int>(c));
      }
    }
  }

  for (auto [ca, cb] : pairs) {
    // When characteristics differ, the lower row of Figure 5 wins.
    AttrCharacteristic c = std::max(prof_a[ca].characteristic,
                                    prof_b[cb].characteristic);
    for (const auto& tmpl : TemplatesFor(c, options.include_matcher_only)) {
      Feature f;
      f.id = static_cast<int>(fs.features_.size());
      f.fn = tmpl.fn;
      f.col_a = ca;
      f.col_b = cb;
      f.tok = tmpl.tok;
      f.name = FeatureName(tmpl, prof_a[ca].name, prof_b[cb].name);
      f.usable_for_blocking = tmpl.blocking;
      if (tmpl.fn == SimFunction::kTfIdf ||
          tmpl.fn == SimFunction::kSoftTfIdf) {
        // Build one IDF dictionary per (A attribute, tokenization), over A.
        auto idf = std::make_unique<IdfDict>();
        for (RowId r = 0; r < a.num_rows(); ++r) {
          if (a.IsMissing(r, ca)) continue;
          idf->AddDocument(ToTokenSet(Tokenize(a.Get(r, ca), tmpl.tok)));
        }
        idf->Finalize();
        f.idf_index = static_cast<int>(fs.idfs_.size());
        fs.idfs_.push_back(std::move(idf));
      }
      fs.all_ids_.push_back(f.id);
      if (f.usable_for_blocking) fs.blocking_ids_.push_back(f.id);
      fs.features_.push_back(std::move(f));
    }
  }
  fs.views_.resize(fs.features_.size());
  return fs;
}

namespace {

/// Tokenization of the views feature `f` reads, or false if it reads none.
bool ViewTokenization(const Feature& f, Tokenization* tok) {
  if (IsSetBased(f.fn)) {
    *tok = f.tok;
    return true;
  }
  if (f.fn == SimFunction::kLevenshtein) {
    *tok = Tokenization::kQgram3;
    return true;
  }
  return false;
}

/// Set similarity over two sorted-unique id spans.
double SetSim(SimFunction fn, std::span<const TokenId> x,
              std::span<const TokenId> y) {
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

}  // namespace

std::vector<TokenStores::Key> FeatureSet::TokenStoreKeys() const {
  std::set<TokenStores::Key> keys;
  for (const Feature& f : features_) {
    Tokenization tok;
    if (!ViewTokenization(f, &tok)) continue;
    keys.insert({false, f.col_a, tok});
    keys.insert({true, f.col_b, tok});
  }
  return {keys.begin(), keys.end()};
}

void FeatureSet::SetTokenStores(std::unique_ptr<TokenStores> stores) {
  stores_ = std::move(stores);
  views_.assign(features_.size(), Views{});
  for (const Feature& f : features_) {
    Tokenization tok;
    if (!ViewTokenization(f, &tok)) continue;
    views_[f.id] = {stores_->view({false, f.col_a, tok}),
                    stores_->view({true, f.col_b, tok})};
    assert(views_[f.id].a != nullptr && views_[f.id].b != nullptr &&
           "token stores lack a view the feature set reads");
  }
}

void FeatureSet::BuildTokenStores(const Table& a, const Table& b) {
  auto stores = std::make_unique<TokenStores>(&a, &b);
  for (const TokenStores::Key& key : TokenStoreKeys()) stores->Build(key);
  SetTokenStores(std::move(stores));
}

double FeatureSet::Compute(int id, const Table& a, RowId a_row,
                           const Table& b, RowId b_row) const {
  const Feature& f = features_[id];
  if (a.IsMissing(a_row, f.col_a) || b.IsMissing(b_row, f.col_b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::string_view va = a.Get(a_row, f.col_a);
  std::string_view vb = b.Get(b_row, f.col_b);
  switch (f.fn) {
    case SimFunction::kExactMatch:
      return ExactMatchSim(va, vb);
    case SimFunction::kLevenshtein:
      return LevenshteinSim(va, vb);
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kCosine: {
      // Both sides' interned sets share one dictionary, so similarity over
      // id spans equals the string computation bit for bit (it depends only
      // on intersection and set sizes).
      const Views& v = views_[id];
      return SetSim(f.fn, v.a->row(a_row), v.b->row(b_row));
    }
    case SimFunction::kAbsDiff: {
      double na = a.GetNumeric(a_row, f.col_a);
      double nb = b.GetNumeric(b_row, f.col_b);
      if (std::isnan(na) || std::isnan(nb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return AbsDiff(na, nb);
    }
    case SimFunction::kRelDiff: {
      double na = a.GetNumeric(a_row, f.col_a);
      double nb = b.GetNumeric(b_row, f.col_b);
      if (std::isnan(na) || std::isnan(nb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return RelDiff(na, nb);
    }
    case SimFunction::kJaro:
      return JaroSim(va, vb);
    case SimFunction::kJaroWinkler:
      return JaroWinklerSim(va, vb);
    case SimFunction::kMongeElkan:
      return MongeElkanSim(WordTokens(va), WordTokens(vb));
    case SimFunction::kNeedlemanWunsch:
      return NeedlemanWunschSim(va, vb);
    case SimFunction::kSmithWaterman:
      return SmithWatermanSim(va, vb);
    case SimFunction::kSmithWatermanGotoh:
      return SmithWatermanGotohSim(va, vb);
    case SimFunction::kTfIdf:
      return TfIdfSim(Tokenize(va, f.tok), Tokenize(vb, f.tok),
                      *idfs_[f.idf_index]);
    case SimFunction::kSoftTfIdf:
      return SoftTfIdfSim(Tokenize(va, f.tok), Tokenize(vb, f.tok),
                          *idfs_[f.idf_index]);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

FeatureVec FeatureSet::ComputeVector(const std::vector<int>& ids,
                                     const Table& a, RowId a_row,
                                     const Table& b, RowId b_row) const {
  FeatureVec fv;
  fv.reserve(ids.size());
  for (int id : ids) fv.push_back(Compute(id, a, a_row, b, b_row));
  return fv;
}

void LazyPairFeatures::Begin(const FeatureSet* fs, const std::vector<int>* ids,
                             const Table* a, RowId a_row, const Table* b,
                             RowId b_row) {
  fs_ = fs;
  ids_ = ids;
  a_ = a;
  b_ = b;
  a_row_ = a_row;
  b_row_ = b_row;
  computed_ = 0;
  // A fresh epoch invalidates every cached slot in O(1). The buffers are
  // re-carved from the thread's scratch arena when its generation moves (the
  // engine resets scratch at task end) or the layout outgrows them; on a
  // re-carve, layout-size change, or epoch wrap (once per ~4B pairs) the
  // stamps are rebuilt.
  ScratchArena& scratch = ThreadScratch();
  const size_t n = ids->size();
  if (generation_ != scratch.generation() || capacity_ < n) {
    values_ = scratch.arena()->AllocateArray<double>(n);
    stamp_ = scratch.arena()->AllocateArray<uint32_t>(n);
    capacity_ = n;
    generation_ = scratch.generation();
    std::fill(stamp_, stamp_ + n, 0u);
    epoch_ = 1;
  } else if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(stamp_, stamp_ + n, 0u);
    epoch_ = 1;
  } else {
    ++epoch_;
  }
}

}  // namespace falcon
