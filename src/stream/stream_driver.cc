#include "stream/stream_driver.h"

#include <algorithm>

#include "util/status.h"

namespace terids {

StreamDriver::StreamDriver(std::vector<std::vector<Record>> sources)
    : sources_(std::move(sources)) {
  TERIDS_CHECK(!sources_.empty());
  cursor_.assign(sources_.size(), 0);
  for (const auto& s : sources_) {
    total_ += s.size();
  }
}

bool StreamDriver::HasNext() const { return emitted_ < total_; }

Record StreamDriver::Next() {
  TERIDS_CHECK(HasNext());
  // Round-robin, skipping exhausted sources.
  for (size_t tries = 0; tries < sources_.size(); ++tries) {
    const size_t s = next_stream_;
    next_stream_ = (next_stream_ + 1) % sources_.size();
    if (cursor_[s] < sources_[s].size()) {
      Record r = sources_[s][cursor_[s]++];
      r.stream_id = static_cast<int>(s);
      r.timestamp = clock_++;
      ++emitted_;
      return r;
    }
  }
  TERIDS_CHECK(false);  // HasNext() guaranteed an arrival.
  return Record();
}

std::vector<Record> StreamDriver::NextBatch(size_t max_records) {
  std::vector<Record> batch;
  batch.reserve(std::min(max_records, remaining()));
  while (batch.size() < max_records && HasNext()) {
    batch.push_back(Next());
  }
  return batch;
}

void StreamDriver::Reset() {
  cursor_.assign(sources_.size(), 0);
  next_stream_ = 0;
  emitted_ = 0;
  clock_ = 0;
}

}  // namespace terids
