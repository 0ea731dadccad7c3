// The DAPPLE profiler (paper Fig. 1, step 1). On the real system it runs a
// few training steps per layer and records compute times, activation sizes
// and parameter sizes. Here a zoo model's layers already carry those
// numbers, so the profiler summarizes a model on one device into the
// Table II statistics, its times scaled by the device's speed.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "model/profile.h"
#include "topo/cluster.h"

namespace dapple::model {

/// Whole-model summary at the profile micro-batch size (paper Table II).
struct ProfileReport {
  std::string model;
  std::uint64_t param_count = 0;
  Bytes param_bytes = 0;     // fp32 weights == AllReduce gradient volume
  int profile_micro_batch = 0;
  Bytes memory_cost = 0;     // weights+opt state+activations at profile mb
  TimeSec forward_time = 0;  // whole model, one micro-batch
  TimeSec backward_time = 0;
  bool fits_single_device = true;  // memory_cost <= device memory
};

class Profiler {
 public:
  explicit Profiler(topo::DeviceSpec device);

  /// Summarizes a model at its profile micro-batch size.
  ProfileReport Report(const ModelProfile& model) const;

 private:
  topo::DeviceSpec device_;
};

}  // namespace dapple::model
