// The structure-of-arrays engine is now sim::Engine itself (engine.h), and
// its SoaGraph layout lives in graph.h. This header only keeps the old
// engine name compiling.
#pragma once

#include "sim/engine.h"

namespace dapple::sim {

using SoaEngine = Engine;

}  // namespace dapple::sim
