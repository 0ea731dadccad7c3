// Old names kept compiling: SoaEngine is sim::Engine (engine.h), and
// SoaGraph (graph.h) is a view that hands the engine a TaskGraph, which it
// runs in place. No structure-of-arrays copy of a graph is made.
#pragma once

#include "sim/engine.h"

namespace dapple::sim {

using SoaEngine = Engine;

}  // namespace dapple::sim
