// Topology-aware device assignment (paper §IV-B, Fig. 5). The planner does
// not enumerate every subset of devices for a stage; instead it composes
// three placement policies:
//
//   Fresh First   — allocate from completely unused machines, keeping a
//                   stage inside one server to exploit NVLink.
//   Append First  — allocate from machines that already have used GPUs,
//                   reducing fragmentation.
//   Scatter First — take GPUs evenly from machines, suited to stages whose
//                   activations dwarf their weights.
//
// This keeps the search space below O(2^S) while covering a strict superset
// of PipeDream's hierarchical placements.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::topo {

enum class PlacementPolicy { kFreshFirst, kAppendFirst, kScatterFirst };

/// All policies, in the order the planner enumerates them.
const std::vector<PlacementPolicy>& AllPlacementPolicies();

std::string ToString(PlacementPolicy policy);

/// Mutable record of which devices are already occupied by planned stages.
/// The planner builds one per distinct vector of per-server used counts it
/// meets (its placement memo) and reads a node's placements as prefixes of
/// its PlanOrder lists instead of copying the state.
class AllocationState {
 public:
  explicit AllocationState(const Cluster& cluster);
  /// The state whose server s has its lowest used_per_server[s] devices
  /// used. Every policy hands a server's lowest free device out first, so
  /// this is every state that carves from an empty cluster reach.
  AllocationState(const Cluster& cluster, std::span<const int> used_per_server);

  const Cluster& cluster() const { return *cluster_; }

  int num_free() const { return num_free_; }
  int used_on_server(ServerId s) const;
  bool is_used(DeviceId d) const;

  /// The free devices in the order `policy` hands them out, such that
  /// Plan(policy, n) is the first n. Only ScatterFirst's order depends on
  /// n: when n fits on the partially used servers it holds just their free
  /// devices, otherwise every free device. Within a server devices go
  /// lowest-free-first, so the order is deterministic.
  std::vector<DeviceId> PlanOrder(PlacementPolicy policy, int n) const;

  /// The devices a policy would hand out for an `n`-device request, without
  /// committing them: the first n of PlanOrder(policy, n). Returns nullopt
  /// when fewer than n devices are free.
  std::optional<DeviceSet> Plan(PlacementPolicy policy, int n) const;

  /// Marks the devices as occupied; throws if any is already used.
  void Commit(const DeviceSet& devices);

 private:
  const Cluster* cluster_;
  std::vector<bool> used_;
  std::vector<int> used_per_server_;
  int num_free_;
};

}  // namespace dapple::topo
