#ifndef TERIDS_STREAM_STREAM_DRIVER_H_
#define TERIDS_STREAM_STREAM_DRIVER_H_

#include <cstdint>
#include <vector>

#include "tuple/record.h"

namespace terids {

/// Interleaves n record sources into one global arrival order (Definition
/// 1: one tuple per timestamp). Round-robin across sources, which models
/// the paper's setting of n streams progressing together. Virtual so
/// wrappers can observe or time how arrivals are handed out without
/// touching what they contain.
class StreamDriver {
 public:
  /// `sources[i]` becomes stream id i. Records receive their stream id and
  /// arrival timestamps 0,1,2,... in interleaved order.
  explicit StreamDriver(std::vector<std::vector<Record>> sources);
  virtual ~StreamDriver() = default;

  /// Whether another arrival is available.
  virtual bool HasNext() const;

  /// Next arriving record (stream id and timestamp already stamped).
  virtual Record Next();

  /// Next micro-batch: up to `max_records` arrivals in global timestamp
  /// order (the batched operator's unit of work). Returns fewer records
  /// only when the sources run dry; empty once exhausted. Equivalent to
  /// calling Next() `max_records` times.
  virtual std::vector<Record> NextBatch(size_t max_records);

  /// Remaining arrivals.
  size_t remaining() const { return total_ - emitted_; }
  size_t total() const { return total_; }
  /// Arrivals handed out so far == the next arrival's global timestamp.
  size_t emitted() const { return emitted_; }

  virtual void Reset();

 private:
  std::vector<std::vector<Record>> sources_;
  std::vector<size_t> cursor_;
  size_t next_stream_ = 0;
  size_t emitted_ = 0;
  size_t total_ = 0;
  int64_t clock_ = 0;
};

}  // namespace terids

#endif  // TERIDS_STREAM_STREAM_DRIVER_H_
