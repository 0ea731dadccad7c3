#include "topo/device_set.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace dapple::topo {

DeviceSet::DeviceSet(std::vector<DeviceId> devices) : devices_(std::move(devices)) {
  // A quadratic scan: sets are at most a cluster wide, and unlike a set or
  // a bitmap it allocates nothing, whatever ids a plan file holds.
  for (auto it = devices_.begin(); it != devices_.end(); ++it) {
    DAPPLE_CHECK_GE(*it, 0) << "negative device id";
    DAPPLE_CHECK(std::find(devices_.begin(), it, *it) == it)
        << "duplicate device " << *it << " in set";
  }
}

DeviceSet DeviceSet::Range(DeviceId first, int count) {
  DAPPLE_CHECK_GE(count, 0);
  std::vector<DeviceId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) ids.push_back(first + i);
  return DeviceSet(std::move(ids));
}

bool DeviceSet::contains(DeviceId d) const {
  return std::find(devices_.begin(), devices_.end(), d) != devices_.end();
}

bool DeviceSet::SingleServer(const Cluster& cluster) const {
  if (devices_.empty()) return true;
  const ServerId first = cluster.server_of(devices_.front());
  for (DeviceId d : devices_) {
    if (cluster.server_of(d) != first) return false;
  }
  return true;
}

std::vector<int> DeviceSet::PerServerCounts(const Cluster& cluster) const {
  std::vector<int> counts(static_cast<std::size_t>(cluster.num_servers()), 0);
  for (DeviceId d : devices_) counts[static_cast<std::size_t>(cluster.server_of(d))]++;
  return counts;
}

std::string DeviceSet::ToString() const {
  if (devices_.empty()) return "[]";
  // Prefer the compact range form used by Table VII in the paper.
  bool contiguous = true;
  for (std::size_t i = 1; i < devices_.size(); ++i) {
    if (devices_[i] != devices_[i - 1] + 1) {
      contiguous = false;
      break;
    }
  }
  std::ostringstream os;
  if (contiguous && devices_.size() > 1) {
    os << "[G" << devices_.front() << "-G" << devices_.back() << "]";
    return os.str();
  }
  os << "[";
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (i) os << ",";
    os << "G" << devices_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace dapple::topo
