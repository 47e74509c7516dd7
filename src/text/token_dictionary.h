// Global token interning.
//
// The blocking/similarity hot path runs over integer token ids instead of
// strings: every distinct token seen by any tokenization of any table is
// interned once into a dense uint32_t TokenId. Sorted-unique id arrays then
// make set similarity an integer merge (text/similarity.h span overloads) and
// let the inverted index key postings by id (index/inverted_index.h). The
// dictionary also tracks per-token occurrence frequencies; the global token
// ordering (index/token_ordering.h) stores its ranks as a vector indexed by
// TokenId. Once a task's token stores are built, Freeze() drops everything
// but the texts (or all of it, when no index will be built).
//
// Token texts are copied into an owned, provider-backed bump arena
// (common/arena.h) — one char blob per token instead of one heap
// std::string each, with stable addresses for the id->view table (arena
// pages never move, including across moves of the dictionary). Lookup is an
// open-addressed, linear-probed table of TokenIds (4 bytes per slot; the
// key is read back through texts_), replacing the node-based unordered_map
// whose per-node and bucket overhead tripled the lookup structure's
// footprint. Ids are assigned in first-seen order either way, so the hash
// layout cannot leak into any downstream result.
//
// Set similarities depend only on |x ∩ y|, |x| and |y|, so any shared total
// order on ids reproduces the string similarities bit for bit — the
// determinism contract the property tests pin down against the string
// oracle.
#ifndef FALCON_TEXT_TOKEN_DICTIONARY_H_
#define FALCON_TEXT_TOKEN_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"

namespace falcon {

/// Dense id of an interned token; ids are assigned in first-seen order.
using TokenId = uint32_t;

/// String <-> TokenId interning with per-token occurrence counts.
///
/// Not copyable (slots index into the owned arena's texts); movable.
/// Thread safety: Intern() mutates and must be externally serialized (the
/// token-store build runs it in one serial MapReduce job); Find(), Text()
/// and Frequency() are safe to call concurrently once interning is done.
class TokenDictionary {
 public:
  /// Token-text pages come from `provider` (process heap when null).
  explicit TokenDictionary(PageProvider* provider = nullptr)
      : arena_(provider) {}
  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;
  TokenDictionary(TokenDictionary&&) = default;
  TokenDictionary& operator=(TokenDictionary&&) = default;

  /// Returns the id of `token`, interning it on first sight; bumps the
  /// token's occurrence count either way.
  TokenId Intern(std::string_view token);

  /// Looks `token` up without interning. Returns true and sets *id if known.
  bool Find(std::string_view token, TokenId* id) const;

  /// Text of an interned token; the view stays valid for the dictionary's
  /// lifetime (texts are arena-backed, never moved).
  std::string_view Text(TokenId id) const { return texts_[id]; }

  /// Total occurrences passed to Intern() for this token.
  uint64_t Frequency(TokenId id) const { return freq_[id]; }

  /// Ends interning: releases the lookup table and the occurrence counts,
  /// and the token texts too unless `keep_texts`. Afterwards only Text()
  /// and size() may be called, and only if the texts were kept. Finished
  /// token sets need no dictionary at all; index construction needs the
  /// texts (token orderings break frequency ties by text).
  void Freeze(bool keep_texts);

  size_t size() const { return texts_.size(); }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  /// Sentinel for an empty lookup slot; ids are dense indexes into texts_
  /// and can never reach it.
  static constexpr TokenId kEmptySlot = 0xFFFFFFFFu;

  /// Slot holding `token`'s id, or the empty slot where it would go.
  /// slots_ must be non-empty.
  size_t ProbeFor(std::string_view token) const;

  /// Doubles (or seeds) the slot table and reinserts every interned id.
  void Grow();

  Arena arena_;                         ///< owns every token's char blob
  std::vector<std::string_view> texts_;  ///< id -> text (into arena_)
  std::vector<uint64_t> freq_;           ///< id -> occurrence count
  std::vector<TokenId> slots_;  ///< open-addressed lookup (power-of-2 size)
};

}  // namespace falcon

#endif  // FALCON_TEXT_TOKEN_DICTIONARY_H_
