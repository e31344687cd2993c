#ifndef TERIDS_TEXT_TOKEN_SET_H_
#define TERIDS_TEXT_TOKEN_SET_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "text/token_dict.h"

namespace terids {

/// A set of interned tokens: a sorted, deduplicated run of token ids.
///
/// This is the unit the similarity function of Definition 5 operates on:
/// sim(r[A_j], r'[A_j]) = |T ∩ T'| / |T ∪ T'| (Jaccard). Intersections run
/// through the shared span kernels of text/similarity_kernels.h (linear
/// merge for balanced sizes, galloping for skewed ones); the refinement hot
/// path additionally reads these sets through the flat TokenArena views.
///
/// A TokenSet either owns its run (FromTokens — the vector lives inside the
/// set) or is a non-owning view over externally owned memory (View — the
/// snapshot backend serves domain token sets directly from the mmap'd
/// token columns this way, DESIGN.md §8). The two are indistinguishable
/// through the read interface; copying a view copies the pointer, not the
/// tokens, so a view must not outlive the memory it was built over (for
/// snapshot views, the MmapSnapshotStorage that maps the file).
class TokenSet {
 public:
  TokenSet() = default;

  TokenSet(const TokenSet& other) { Assign(other); }
  TokenSet& operator=(const TokenSet& other) {
    if (this != &other) Assign(other);
    return *this;
  }
  TokenSet(TokenSet&& other) noexcept { Adopt(std::move(other)); }
  TokenSet& operator=(TokenSet&& other) noexcept {
    if (this != &other) Adopt(std::move(other));
    return *this;
  }

  /// Builds an owning set from an arbitrary (possibly unsorted, duplicated)
  /// token list.
  static TokenSet FromTokens(std::vector<Token> tokens);

  /// Non-owning view over `n` tokens at `data`, which must already be
  /// sorted and deduplicated (the normalized form FromTokens produces) and
  /// must outlive every copy of the returned set.
  static TokenSet View(const Token* data, size_t n);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Token* data() const { return data_; }
  const Token* begin() const { return data_; }
  const Token* end() const { return data_ + size_; }
  Token operator[](size_t i) const { return data_[i]; }

  /// Whether this set owns its run (false for View-built sets).
  bool owns() const { return !view_; }

  /// Membership test (binary search).
  [[nodiscard]] bool Contains(Token t) const;

  /// |this ∩ other| (merge or gallop; identical counts either way).
  [[nodiscard]] size_t IntersectionSize(const TokenSet& other) const;

  bool operator==(const TokenSet& other) const;

 private:
  void Assign(const TokenSet& other);
  void Adopt(TokenSet&& other);

  // data_/size_ are the one read path; owned_ only backs them when owns().
  std::vector<Token> owned_;
  const Token* data_ = nullptr;
  size_t size_ = 0;
  bool view_ = false;
};

/// The shared empty token set: the value of every missing attribute.
/// Namespace-level (not a function-local static) so hot functions comparing
/// against it pay no magic-static guard. Dynamically initialized in
/// token_set.cc — read it at runtime only, never from another translation
/// unit's static initializer (C++17 cannot constant-initialize a vector, so
/// cross-TU initialization order is unspecified).
extern const TokenSet kEmptyTokenSet;

/// Jaccard similarity in [0,1]. Two empty sets are defined as similarity 1
/// (identical absence of content), matching the convention the evaluation
/// needs for short attributes such as `year`.
[[nodiscard]] double JaccardSimilarity(const TokenSet& a, const TokenSet& b);

/// Jaccard distance = 1 - similarity. This is a metric (satisfies the
/// triangle inequality), which Lemma 4.2 and the pivot embedding rely on.
[[nodiscard]] double JaccardDistance(const TokenSet& a, const TokenSet& b);

}  // namespace terids

#endif  // TERIDS_TEXT_TOKEN_SET_H_
