#ifndef TERIDS_UTIL_INTERVAL_H_
#define TERIDS_UTIL_INTERVAL_H_

#include <algorithm>
#include <limits>

namespace terids {

/// Closed real interval [lo, hi]. Used for CDD distance constraints,
/// token-set size intervals, and pivot-distance bounds.
///
/// Empty-interval semantics (lo > hi, the default state) are part of the
/// contract — CDD pruning consumes intervals that may never have been grown:
///   - Contains(v)      is false for every v (vacuously: no point is in it).
///   - Overlaps(other)  is false whenever either side is empty.
///   - width()          is 0.
///   - MinAbsDiff       is +infinity whenever either side is empty: there is
///     no (x, y) pair to take a difference over, and +inf is the identity
///     that makes an empty side maximally prunable in Lemma 4.2 sums.
struct Interval {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  /// The canonical default is *empty* (lo > hi); Cover() grows it.
  static Interval Empty() { return Interval(); }
  static Interval Point(double v) { return {v, v}; }
  static Interval Of(double lo, double hi) { return {lo, hi}; }

  bool empty() const { return lo > hi; }
  double width() const { return empty() ? 0.0 : hi - lo; }

  bool Contains(double v) const { return v >= lo && v <= hi; }

  bool Overlaps(const Interval& other) const {
    return !empty() && !other.empty() && lo <= other.hi && other.lo <= hi;
  }

  /// Grows to include v.
  void Cover(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }

  /// Minimum |x - y| over x in this, y in other; 0 if they overlap.
  /// This is exactly the min_dist of Lemma 4.2. If either interval is
  /// empty the minimum ranges over no pairs at all and the result is
  /// +infinity — explicitly, rather than via comparisons on the empty
  /// sentinel bounds, which fell through to the overlap branch (returning
  /// 0, "touching") when the other side was unbounded on both ends.
  double MinAbsDiff(const Interval& other) const {
    if (empty() || other.empty()) {
      return std::numeric_limits<double>::infinity();
    }
    if (lo > other.hi) return lo - other.hi;
    if (other.lo > hi) return other.lo - hi;
    return 0.0;
  }

  bool operator==(const Interval& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

}  // namespace terids

#endif  // TERIDS_UTIL_INTERVAL_H_
