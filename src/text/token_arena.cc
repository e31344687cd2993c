#include "text/token_arena.h"

#include "text/similarity_kernels.h"
#include "util/status.h"

namespace terids {

uint32_t TokenArena::AddRange(const Token* tokens, size_t n) {
  TERIDS_CHECK(tokens_.size() + n <=
               static_cast<size_t>(static_cast<uint32_t>(-1)));
  Range r;
  r.offset = static_cast<uint32_t>(tokens_.size());
  r.len = static_cast<uint32_t>(n);
  r.sig = TokenSignature(tokens, n);
  tokens_.insert(tokens_.end(), tokens, tokens + n);
  const uint32_t id = static_cast<uint32_t>(ranges_.size());
  ranges_.push_back(r);
  return id;
}

void TokenArena::PushSlot(uint32_t range_id) {
  TERIDS_CHECK(range_id < ranges_.size());
  slot_ranges_.push_back(range_id);
}

void TokenArena::Reserve(size_t tokens, size_t ranges, size_t slots) {
  tokens_.reserve(tokens);
  ranges_.reserve(ranges);
  slot_ranges_.reserve(slots);
}

}  // namespace terids
