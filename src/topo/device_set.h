// DeviceSet: an ordered collection of device ids assigned to one pipeline
// stage, plus queries the cost models need (server span, per-server counts).
#pragma once

#include <string>
#include <vector>

#include "topo/cluster.h"

namespace dapple::topo {

/// Ordered, duplicate-free set of devices hosting one (possibly replicated)
/// pipeline stage. Order is the replica rank order.
class DeviceSet {
 public:
  DeviceSet() = default;
  explicit DeviceSet(std::vector<DeviceId> devices);

  static DeviceSet Range(DeviceId first, int count);

  bool empty() const { return devices_.empty(); }
  int size() const { return static_cast<int>(devices_.size()); }
  const std::vector<DeviceId>& devices() const { return devices_; }
  DeviceId operator[](int i) const { return devices_.at(static_cast<std::size_t>(i)); }

  bool contains(DeviceId d) const;

  /// True when every device lives on one server (an empty set does too).
  bool SingleServer(const Cluster& cluster) const;

  /// Count of the set's devices on each server (indexed by ServerId, sized
  /// to cluster.num_servers()).
  std::vector<int> PerServerCounts(const Cluster& cluster) const;

  /// Compact display such as "[G0-G7]" or "[G0,G2,G4]".
  std::string ToString() const;

  bool operator==(const DeviceSet& other) const { return devices_ == other.devices_; }

 private:
  std::vector<DeviceId> devices_;
};

}  // namespace dapple::topo
