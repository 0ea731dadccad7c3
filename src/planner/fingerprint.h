// Canonical fingerprints of the planner's inputs, built on the stable
// common::Fingerprint64 primitive. A plan request is identified
// by the digest of everything the planner's answer depends on — the full
// model profile (every layer vector), the cluster topology, the global
// batch size, the schedule family, the memory cap, the recompute policy and
// the result-affecting planner options — and by nothing it does not
// (thread counts, cache bounds: the search is byte-identical across
// those, so requests differing only there must share a cache entry).
//
// The digests are stable across processes and platforms, which is what
// makes them usable as plan-cache keys with a meaningful lifetime and as
// durable instance ids in BENCH rows. Three callers key a plan memo on
// FingerprintPlanRequest: the serve daemon's plan cache, the scenario
// co-scheduler's cell cache and the elastic-replan memo of one fault
// experiment. tests/serve_test.cc pins golden digests;
// tests/fingerprint_test.cc checks that every change a degraded cluster
// carries moves FingerprintCluster.
#pragma once

#include <cstdint>

#include "common/fingerprint.h"
#include "model/profile.h"
#include "planner/dp_planner.h"
#include "topo/cluster.h"

namespace dapple::planner {

/// Digest of a full model profile: name, optimizer, profile micro-batch
/// and every per-layer statistic.
std::uint64_t FingerprintModel(const model::ModelProfile& model);

/// Digest of a cluster: shape, device spec, interconnect, per-server speeds.
std::uint64_t FingerprintCluster(const topo::Cluster& cluster);

/// Digest of the result-affecting planner options (excludes num_threads
/// and use_stage_cache — the plan is byte-identical across thread counts
/// and whether or not subproblems share one stage-row memo).
std::uint64_t FingerprintPlannerOptions(const PlannerOptions& options);

/// The plan-cache key: model x cluster x global batch x options, bound to
/// a format version so key semantics can evolve without aliasing old
/// entries.
std::uint64_t FingerprintPlanRequest(const model::ModelProfile& model,
                                     const topo::Cluster& cluster,
                                     long global_batch_size,
                                     const PlannerOptions& options);

}  // namespace dapple::planner
