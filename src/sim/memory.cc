#include "sim/memory.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::sim {

MemoryPool::MemoryPool(Bytes capacity, std::size_t events) : capacity_(capacity) {
  timeline_.reserve(events + 1);
  timeline_.push_back({0.0, 0});
}

void MemoryPool::SetBaseline(Bytes bytes) {
  DAPPLE_CHECK_EQ(current_, baseline_) << "baseline set after traffic";
  baseline_ = bytes;
  current_ = bytes;
  peak_ = std::max(peak_, current_);
  timeline_.front().bytes = bytes;
}

void MemoryPool::Allocate(TimeSec now, Bytes bytes) {
  if (bytes == 0) return;
  current_ += bytes;
  if (current_ > peak_) {
    peak_ = current_;
    peak_time_ = now;
  }
  Record(now);
}

void MemoryPool::Free(TimeSec now, Bytes bytes) {
  if (bytes == 0) return;
  DAPPLE_CHECK_GE(current_, baseline_ + bytes)
      << "freeing more activation bytes than allocated";
  current_ -= bytes;
  Record(now);
}

void MemoryPool::Record(TimeSec now) {
  if (!timeline_.empty() && timeline_.back().time == now) {
    timeline_.back().bytes = current_;
  } else {
    timeline_.push_back({now, current_});
  }
}

}  // namespace dapple::sim
