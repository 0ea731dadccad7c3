// The planning fingerprint lives in planner/fingerprint.h; the serve
// namespace keeps its historical names for callers that spell them
// serve::Fingerprint*.
#pragma once

#include "planner/fingerprint.h"

namespace dapple::serve {

using planner::FingerprintCluster;
using planner::FingerprintModel;
using planner::FingerprintPlannerOptions;
using planner::FingerprintPlanRequest;

}  // namespace dapple::serve
