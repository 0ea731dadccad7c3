// Bit-exact rendering of a PlanEstimate for oracle tests: every field,
// floating-point values as their raw 64-bit patterns, so two estimates
// compare equal only when every bit agrees (and a mismatch prints which
// field moved).
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "planner/latency.h"

namespace dapple::planner {

inline std::string EstimateBits(const PlanEstimate& e) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::ostringstream os;
  os << "feasible=" << e.feasible << " reason='" << e.infeasible_reason
     << "' memory_limited=" << e.memory_limited << " latency=" << bits(e.latency)
     << " warmup=" << bits(e.warmup) << " steady=" << bits(e.steady)
     << " ending=" << bits(e.ending) << " pivot=" << e.pivot << " acr=" << bits(e.acr)
     << " mbs=" << e.micro_batch_size << " M=" << e.num_micro_batches
     << " peak=" << e.max_peak_memory << " capacity=" << e.memory_capacity
     << " speedup=" << bits(e.speedup) << " stages=[";
  for (const StageCost& s : e.stages) {
    os << "{" << s.is_comm << "," << s.comp_index << "," << bits(s.forward) << ","
       << bits(s.backward) << "," << bits(s.allreduce) << "," << bits(s.allreduce_raw) << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace dapple::planner
