#include "topo/assignment.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace dapple::topo {

const std::vector<PlacementPolicy>& AllPlacementPolicies() {
  static const std::vector<PlacementPolicy> kAll = {
      PlacementPolicy::kFreshFirst, PlacementPolicy::kAppendFirst,
      PlacementPolicy::kScatterFirst};
  return kAll;
}

std::string ToString(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFreshFirst: return "FreshFirst";
    case PlacementPolicy::kAppendFirst: return "AppendFirst";
    case PlacementPolicy::kScatterFirst: return "ScatterFirst";
  }
  return "?";
}

AllocationState::AllocationState(const Cluster& cluster)
    : cluster_(&cluster),
      used_(static_cast<std::size_t>(cluster.num_devices()), false),
      used_per_server_(static_cast<std::size_t>(cluster.num_servers()), 0),
      num_free_(cluster.num_devices()) {}

AllocationState::AllocationState(const Cluster& cluster, std::span<const int> used_per_server)
    : AllocationState(cluster) {
  DAPPLE_CHECK_EQ(used_per_server.size(), used_per_server_.size()) << "one count per server";
  const int per = cluster.gpus_per_server();
  for (ServerId s = 0; s < cluster.num_servers(); ++s) {
    const int used = used_per_server[static_cast<std::size_t>(s)];
    DAPPLE_CHECK(used >= 0 && used <= per) << "server " << s << " uses " << used << " devices";
    std::fill_n(used_.begin() + s * per, used, true);
    used_per_server_[static_cast<std::size_t>(s)] = used;
    num_free_ -= used;
  }
}

int AllocationState::used_on_server(ServerId s) const {
  return used_per_server_.at(static_cast<std::size_t>(s));
}

bool AllocationState::is_used(DeviceId d) const {
  return used_.at(static_cast<std::size_t>(d));
}

std::vector<DeviceId> AllocationState::PlanOrder(PlacementPolicy policy, int n) const {
  const int servers = cluster_->num_servers();
  const int per = cluster_->gpus_per_server();

  // Server visit order depends on the policy.
  std::vector<ServerId> order(static_cast<std::size_t>(servers));
  std::iota(order.begin(), order.end(), 0);

  auto free_on = [&](ServerId s) { return per - used_on_server(s); };
  auto is_fresh = [&](ServerId s) { return used_on_server(s) == 0; };
  auto is_partial = [&](ServerId s) { return used_on_server(s) > 0 && free_on(s) > 0; };

  std::vector<DeviceId> picked;
  picked.reserve(static_cast<std::size_t>(num_free_));
  // Whole servers in `order`, each lowest-free-first.
  auto take_servers = [&] {
    for (ServerId s : order) {
      for (DeviceId d = s * per; d < (s + 1) * per; ++d) {
        if (!used_[static_cast<std::size_t>(d)]) picked.push_back(d);
      }
    }
  };

  switch (policy) {
    case PlacementPolicy::kFreshFirst:
      // Fill fresh machines first (whole machines), preferring faster
      // servers on heterogeneous clusters, then fall back to partially
      // used ones.
      std::stable_sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
        if (is_fresh(a) != is_fresh(b)) return is_fresh(a) > is_fresh(b);
        return cluster_->server_speed(a) > cluster_->server_speed(b);
      });
      take_servers();
      break;
    case PlacementPolicy::kAppendFirst:
      // Prefer machines with the fewest free GPUs (most occupied first) so
      // fragments get consumed before fresh machines are touched.
      std::stable_sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
        const bool pa = is_partial(a);
        const bool pb = is_partial(b);
        if (pa != pb) return pa > pb;
        if (pa && pb) return free_on(a) < free_on(b);
        return false;
      });
      take_servers();
      break;
    case PlacementPolicy::kScatterFirst: {
      // Round-robin one GPU at a time. If some machines are already in use,
      // scatter across those first; otherwise scatter across all machines.
      std::vector<ServerId> pool;
      int pool_free = 0;
      for (ServerId s : order) {
        if (is_partial(s)) {
          pool.push_back(s);
          pool_free += free_on(s);
        }
      }
      // Use only partially-used machines when they can satisfy the request;
      // otherwise extend with fresh machines (and scatter across all
      // machines when everything is fresh).
      if (pool.empty() || pool_free < n) {
        for (ServerId s : order) {
          if (!is_partial(s) && free_on(s) > 0) pool.push_back(s);
        }
      }
      // Round r takes the r-th free device of each pool server.
      std::vector<DeviceId> cursor;  // each pool server's next device
      cursor.reserve(pool.size());
      for (ServerId s : pool) cursor.push_back(s * per);
      for (bool progressed = true; progressed;) {
        progressed = false;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          DeviceId& d = cursor[i];
          const DeviceId end = (pool[i] + 1) * per;
          while (d < end && used_[static_cast<std::size_t>(d)]) ++d;
          if (d == end) continue;
          picked.push_back(d++);
          progressed = true;
        }
      }
      break;
    }
  }
  return picked;
}

std::optional<DeviceSet> AllocationState::Plan(PlacementPolicy policy, int n) const {
  DAPPLE_CHECK_GT(n, 0) << "allocation size";
  if (n > num_free_) return std::nullopt;
  std::vector<DeviceId> order = PlanOrder(policy, n);
  if (static_cast<int>(order.size()) < n) return std::nullopt;
  order.resize(static_cast<std::size_t>(n));
  return DeviceSet(std::move(order));
}

void AllocationState::Commit(const DeviceSet& devices) {
  for (DeviceId d : devices.devices()) {
    DAPPLE_CHECK(!used_.at(static_cast<std::size_t>(d))) << "device G" << d << " already used";
  }
  for (DeviceId d : devices.devices()) {
    used_[static_cast<std::size_t>(d)] = true;
    used_per_server_[static_cast<std::size_t>(cluster_->server_of(d))]++;
    --num_free_;
  }
}

}  // namespace dapple::topo
