#include "table/token_store.h"

#include <algorithm>
#include <vector>

namespace falcon {

const TokenSetView* TokenStore::view(int col, Tokenization tok) const {
  auto it = views_.find({col, static_cast<int>(tok)});
  return it == views_.end() ? nullptr : &it->second;
}

const TokenSetView& TokenStore::EnsureView(int col, Tokenization tok) {
  auto [it, inserted] = views_.try_emplace({col, static_cast<int>(tok)});
  TokenSetView& view = it->second;
  if (!inserted) return view;
  const size_t n = table_->num_rows();
  std::vector<TokenId> ids;
  std::vector<uint32_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  for (RowId r = 0; r < n; ++r) {
    if (!table_->IsMissing(r, col)) {
      for (const std::string& t : Tokenize(table_->Get(r, col), tok)) {
        ids.push_back(dict_->Intern(t));
      }
      auto begin = ids.begin() + offsets.back();
      std::sort(begin, ids.end());
      ids.erase(std::unique(begin, ids.end()), ids.end());
    }
    offsets.push_back(static_cast<uint32_t>(ids.size()));
  }
  // Exact-size copies; the scratch vectors and their slack die here.
  view.ids_.assign(ids.begin(), ids.end());
  view.offsets_.assign(offsets.begin(), offsets.end());
  return view;
}

size_t TokenStore::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [key, view] : views_) {
    bytes += view.MemoryUsage() + sizeof(view) + sizeof(void*) * 4;
  }
  return bytes;
}

}  // namespace falcon
