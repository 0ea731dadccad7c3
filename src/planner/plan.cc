#include "planner/plan.h"

#include <cstdint>
#include <sstream>

#include "common/error.h"

namespace dapple::planner {

int ParallelPlan::num_devices() const {
  int n = 0;
  for (const StagePlan& s : stages) n += s.devices.size();
  return n;
}

bool ParallelPlan::IsStraight() const {
  if (stages.size() < 2) return false;
  for (const StagePlan& s : stages) {
    if (s.devices.size() != 1) return false;
  }
  return true;
}

void ParallelPlan::Validate(const model::ModelProfile& model_profile) const {
  DAPPLE_CHECK(!stages.empty()) << "plan for " << model << " has no stages";
  int expected_begin = 0;
  // One bit per device id (DeviceSet ids are non-negative): the planner
  // validates every candidate it scores, so no node-based set here.
  std::vector<std::uint64_t> seen;
  for (const StagePlan& s : stages) {
    DAPPLE_CHECK_EQ(s.layer_begin, expected_begin) << "non-contiguous stages in " << model;
    DAPPLE_CHECK_GT(s.layer_end, s.layer_begin) << "empty stage in " << model;
    DAPPLE_CHECK_GT(s.devices.size(), 0) << "stage without devices in " << model;
    for (topo::DeviceId d : s.devices.devices()) {
      const auto word = static_cast<std::size_t>(d) / 64;
      const std::uint64_t bit = std::uint64_t{1} << (d % 64);
      if (word >= seen.size()) seen.resize(word + 1, 0);
      DAPPLE_CHECK((seen[word] & bit) == 0) << "device G" << d << " in two stages";
      seen[word] |= bit;
    }
    expected_begin = s.layer_end;
  }
  DAPPLE_CHECK_EQ(expected_begin, model_profile.num_layers())
      << "plan does not cover model " << model;
}

std::string ParallelPlan::ToString() const {
  if (IsDataParallel()) return "DP";
  if (IsStraight()) return "Straight";
  std::ostringstream os;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i) os << " : ";
    os << stages[i].replication();
  }
  return os.str();
}

std::string ParallelPlan::SplitString() const {
  if (IsDataParallel()) return "-";
  std::ostringstream os;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i) os << " : ";
    os << stages[i].num_layers();
  }
  return os.str();
}

std::string ParallelPlan::ToDetailedString() const {
  std::ostringstream os;
  for (const StagePlan& s : stages) {
    os << "(" << s.layer_begin << ", " << s.layer_end << ") @ " << s.devices.ToString();
    if (s.recompute) os << " [recompute]";
    os << "\n";
  }
  return os.str();
}

}  // namespace dapple::planner
