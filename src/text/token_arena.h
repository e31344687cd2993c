#ifndef TERIDS_TEXT_TOKEN_ARENA_H_
#define TERIDS_TEXT_TOKEN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/token_dict.h"

namespace terids {

/// A read-only view of one token set inside a TokenArena: a sorted,
/// deduplicated span plus its precomputed 64-bit hashed-bitmap signature
/// (DESIGN.md §11). This is the unit the refinement hot path operates on —
/// sequential memory instead of per-value heap vectors, and an O(1)
/// popcount bound before any merge.
struct TokenView {
  const Token* data = nullptr;
  uint32_t len = 0;
  uint64_t sig = 0;

  bool empty() const { return len == 0; }
};

/// Flat SoA storage for the token sets of one window-resident tuple
/// (DESIGN.md §9): every distinct token set is appended once into a single
/// contiguous Token buffer (a "range": offset + length), and slots map
/// logical positions — (instance, attribute) cells, plus the cached
/// record-union — onto ranges. Each range stores its signature beside its
/// offset and length, so one range lookup yields the whole view. Slots
/// freely alias ranges, so an
/// attribute shared by all instances (or two instances choosing the same
/// imputed value) stores its tokens exactly once while every slot lookup
/// stays O(1).
///
/// The arena is build-once: ranges and slots are appended during tuple
/// construction and never mutated afterwards, which is what makes
/// concurrent refinement reads safe without synchronization.
class TokenArena {
 public:
  static constexpr uint32_t kInvalidRange = static_cast<uint32_t>(-1);

  /// Appends a copy of the sorted, deduplicated span (TokenSet order) and
  /// returns the range id. Signatures are computed here, once per range.
  uint32_t AddRange(const Token* tokens, size_t n);
  uint32_t AddRange(const std::vector<Token>& tokens) {
    return AddRange(tokens.data(), tokens.size());
  }

  /// Appends the next slot, referring to an existing range.
  void PushSlot(uint32_t range_id);

  TokenView slot(size_t i) const { return range(slot_ranges_[i]); }
  TokenView range(uint32_t range_id) const {
    const Range& r = ranges_[range_id];
    return TokenView{tokens_.data() + r.offset, r.len, r.sig};
  }

  size_t num_slots() const { return slot_ranges_.size(); }
  size_t num_ranges() const { return ranges_.size(); }
  size_t total_tokens() const { return tokens_.size(); }

  /// Pre-sizes the buffers (construction-time hint; optional).
  void Reserve(size_t tokens, size_t ranges, size_t slots);

 private:
  struct Range {
    uint32_t offset = 0;
    uint32_t len = 0;
    uint64_t sig = 0;
  };

  std::vector<Token> tokens_;
  std::vector<Range> ranges_;
  std::vector<uint32_t> slot_ranges_;  // slot index -> range id
};

}  // namespace terids

#endif  // TERIDS_TEXT_TOKEN_ARENA_H_
