// Per-table token-id arenas.
//
// Every (row, attribute, tokenization) a set-based feature, blocking filter
// or index reads is tokenized exactly once, interned through one shared
// TokenDictionary, and stored as a sorted-unique TokenId array in CSR layout
// (one flat id array plus per-row offsets). Feature computation, probing and
// index construction then read spans out of the views; nothing retokenizes
// strings per pair.
//
// A view is assembled in scratch vectors and copied into exact-size arrays,
// so it carries no growth slack and MemoryUsage() reports the bytes actually
// held. Stores live as long as their session, so slack would be paid by
// every resident session of a service.
//
// TokenStores bundles the two tables of one matching task over one
// dictionary. FalconPipeline builds it once, in one map-only job on its
// first step (src/core/pipeline.cc), and hands it to the FeatureSet, which
// every reader goes through. A built view is immutable; concurrent readers
// need no locks.
#ifndef FALCON_TABLE_TOKEN_STORE_H_
#define FALCON_TABLE_TOKEN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "table/table.h"
#include "text/token_dictionary.h"
#include "text/tokenize.h"

namespace falcon {

/// Sorted-unique TokenId sets for every row of one (column, tokenization),
/// in CSR layout. Owned by a TokenStore; immutable once built.
class TokenSetView {
 public:
  /// The row's token set, sorted ascending by TokenId, duplicates removed.
  /// Empty for missing values and values that tokenize to nothing.
  std::span<const TokenId> row(RowId r) const {
    return std::span<const TokenId>(ids_.data() + offsets_[r],
                                    offsets_[r + 1] - offsets_[r]);
  }

  size_t num_rows() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t num_ids() const { return ids_.size(); }

  /// Exact bytes of the CSR arrays.
  size_t MemoryUsage() const {
    return ids_.capacity() * sizeof(TokenId) +
           offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  friend class TokenStore;
  std::vector<TokenId> ids_;
  std::vector<uint32_t> offsets_;  ///< num_rows + 1 entries
};

/// All token-set views of one table, sharing one TokenDictionary.
class TokenStore {
 public:
  /// Binds to `table` and `dict`; both must outlive the store.
  TokenStore(const Table* table, TokenDictionary* dict)
      : table_(table), dict_(dict) {}

  /// The view for (col, tok), or nullptr if not built.
  const TokenSetView* view(int col, Tokenization tok) const;

  /// Builds the view if absent (one tokenize+intern pass over the table) and
  /// returns it.
  const TokenSetView& EnsureView(int col, Tokenization tok);

  /// Heap footprint of all views in bytes, map overhead included (the shared
  /// dictionary is accounted separately by its owner).
  size_t MemoryUsage() const;

 private:
  const Table* table_;
  TokenDictionary* dict_;
  /// (col, tok) -> view; node addresses stay stable as views are added.
  std::map<std::pair<int, int>, TokenSetView> views_;
};

/// The token stores of one (A, B) matching task: both tables' views over one
/// shared dictionary, so ids compare across tables. Not movable (the stores
/// point at the owned dictionary); hold it by unique_ptr.
class TokenStores {
 public:
  /// One view to build: which table, which column, which tokenization.
  struct Key {
    bool side_b = false;  ///< false: table A, true: table B
    int col = -1;
    Tokenization tok = Tokenization::kWord;

    bool operator<(const Key& o) const {
      if (side_b != o.side_b) return side_b < o.side_b;
      if (col != o.col) return col < o.col;
      return tok < o.tok;
    }
  };

  /// `a` and `b` must outlive the stores.
  TokenStores(const Table* a, const Table* b) : a_(a, &dict_), b_(b, &dict_) {}
  TokenStores(const TokenStores&) = delete;
  TokenStores& operator=(const TokenStores&) = delete;

  /// Builds the view `key` names (no-op if built). Interns into the shared
  /// dictionary, so calls must be serialized.
  void Build(const Key& key) { side(key.side_b).EnsureView(key.col, key.tok); }

  /// Ends building: freezes the shared dictionary, keeping the token texts
  /// only if `keep_texts` (see TokenDictionary::Freeze).
  void Freeze(bool keep_texts) { dict_.Freeze(keep_texts); }

  /// The view `key` names, or nullptr if not built.
  const TokenSetView* view(const Key& key) const {
    return key.side_b ? b_.view(key.col, key.tok) : a_.view(key.col, key.tok);
  }

  const TokenStore& a() const { return a_; }
  const TokenStore& b() const { return b_; }
  const TokenDictionary& dict() const { return dict_; }

  /// Heap footprint of the dictionary and both stores, in bytes.
  size_t MemoryUsage() const {
    return dict_.MemoryUsage() + a_.MemoryUsage() + b_.MemoryUsage();
  }

 private:
  TokenStore& side(bool side_b) { return side_b ? b_ : a_; }

  TokenDictionary dict_;  ///< declared first: the stores point at it
  TokenStore a_;
  TokenStore b_;
};

}  // namespace falcon

#endif  // FALCON_TABLE_TOKEN_STORE_H_
