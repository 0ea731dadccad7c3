// Bit-exact rendering of a PlanEstimate (and of a stage entry and a
// CandidateScore) for oracle tests: every field,
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

inline std::uint64_t DoubleBits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline std::string StageCostBits(const StageCost& s) {
  std::ostringstream os;
  os << "{" << s.is_comm << "," << s.comp_index << "," << DoubleBits(s.forward) << ","
     << DoubleBits(s.backward) << "," << DoubleBits(s.allreduce) << ","
     << DoubleBits(s.allreduce_raw) << "}";
  return os.str();
}

inline std::string ScoreBits(const CandidateScore& s) {
  std::ostringstream os;
  os << "feasible=" << s.feasible << " memory_limited=" << s.memory_limited
     << " latency=" << DoubleBits(s.latency) << " peak=" << s.peak;
  return os.str();
}

inline std::string EstimateBits(const PlanEstimate& e) {
  const auto bits = DoubleBits;
  std::ostringstream os;
  os << "feasible=" << e.feasible << " reason='" << e.infeasible_reason
     << "' memory_limited=" << e.memory_limited << " latency=" << bits(e.latency)
     << " warmup=" << bits(e.warmup) << " steady=" << bits(e.steady)
     << " ending=" << bits(e.ending) << " pivot=" << e.pivot << " acr=" << bits(e.acr)
     << " mbs=" << e.micro_batch_size << " M=" << e.num_micro_batches
     << " peak=" << e.max_peak_memory << " capacity=" << e.memory_capacity
     << " speedup=" << bits(e.speedup) << " stages=[";
  for (const StageCost& s : e.stages) os << StageCostBits(s);
  os << "]";
  return os.str();
}

}  // namespace dapple::planner
