#include "text/token_dictionary.h"

#include <functional>

namespace falcon {

size_t TokenDictionary::ProbeFor(std::string_view token) const {
  const size_t mask = slots_.size() - 1;
  size_t i = std::hash<std::string_view>{}(token)&mask;
  while (slots_[i] != kEmptySlot && texts_[slots_[i]] != token) {
    i = (i + 1) & mask;
  }
  return i;
}

void TokenDictionary::Grow() {
  const size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  std::vector<TokenId>(cap, kEmptySlot).swap(slots_);
  const size_t mask = cap - 1;
  for (TokenId id = 0; id < texts_.size(); ++id) {
    size_t i = std::hash<std::string_view>{}(texts_[id]) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  // Keep load <= 0.7; growing before the probe keeps the insert slot valid.
  if ((texts_.size() + 1) * 10 >= slots_.size() * 7) Grow();
  const size_t slot = ProbeFor(token);
  if (slots_[slot] != kEmptySlot) {
    ++freq_[slots_[slot]];
    return slots_[slot];
  }
  TokenId id = static_cast<TokenId>(texts_.size());
  char* copy = arena_.AllocateArray<char>(token.size());
  if (!token.empty()) std::memcpy(copy, token.data(), token.size());
  texts_.push_back(std::string_view(copy, token.size()));
  freq_.push_back(1);
  slots_[slot] = id;
  return id;
}

bool TokenDictionary::Find(std::string_view token, TokenId* id) const {
  if (slots_.empty()) return false;
  const size_t slot = ProbeFor(token);
  if (slots_[slot] == kEmptySlot) return false;
  *id = slots_[slot];
  return true;
}

void TokenDictionary::Freeze(bool keep_texts) {
  std::vector<TokenId>().swap(slots_);
  std::vector<uint64_t>().swap(freq_);
  if (keep_texts) {
    texts_.shrink_to_fit();
  } else {
    std::vector<std::string_view>().swap(texts_);
    arena_.Reset();
    arena_.Trim(0);
  }
}

size_t TokenDictionary::MemoryUsage() const {
  return arena_.bytes_reserved() +
         texts_.capacity() * sizeof(std::string_view) +
         freq_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(TokenId);
}

}  // namespace falcon
