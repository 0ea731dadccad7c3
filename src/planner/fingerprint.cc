#include "planner/fingerprint.h"

#include "runtime/schedule.h"
#include "topo/assignment.h"

namespace dapple::planner {

std::uint64_t FingerprintModel(const model::ModelProfile& model) {
  Fingerprint64 fp;
  fp.Mix("model/v1");
  fp.Mix(model.name());
  fp.Mix(static_cast<std::int64_t>(model.optimizer()));
  fp.Mix(model.profile_micro_batch());
  fp.Mix(static_cast<std::uint64_t>(model.num_layers()));
  for (const model::LayerProfile& layer : model.layers()) {
    fp.Mix(layer.name);
    fp.Mix(layer.forward_time);
    fp.Mix(layer.backward_time);
    fp.Mix(layer.fixed_overhead);
    fp.Mix(layer.output_activation);
    fp.Mix(layer.activation_memory);
    fp.Mix(layer.param_count);
  }
  return fp.digest();
}

std::uint64_t FingerprintCluster(const topo::Cluster& cluster) {
  Fingerprint64 fp;
  fp.Mix("cluster/v1");
  fp.Mix(cluster.name());
  fp.Mix(cluster.num_servers());
  fp.Mix(cluster.gpus_per_server());
  const topo::DeviceSpec& device = cluster.device();
  fp.Mix(device.name);
  fp.Mix(device.memory);
  fp.Mix(device.relative_speed);
  const topo::InterconnectSpec& net = cluster.interconnect();
  fp.Mix(net.intra_server_bandwidth);
  fp.Mix(net.intra_server_latency);
  fp.Mix(net.inter_server_bandwidth);
  fp.Mix(net.inter_server_latency);
  fp.Mix(cluster.homogeneous());
  if (!cluster.homogeneous()) {
    for (int s = 0; s < cluster.num_servers(); ++s) fp.Mix(cluster.server_speed(s));
  }
  return fp.digest();
}

std::uint64_t FingerprintPlannerOptions(const PlannerOptions& options) {
  Fingerprint64 fp;
  fp.Mix("planner-options/v2");
  fp.Mix(static_cast<std::int64_t>(options.global_batch_size));
  fp.Mix(options.max_stages);
  fp.Mix(options.prune_slack);
  fp.Mix(options.keep_alternatives);
  fp.Mix(static_cast<std::uint64_t>(options.policies.size()));
  for (const topo::PlacementPolicy policy : options.policies) {
    fp.Mix(static_cast<std::int64_t>(policy));
  }
  fp.Mix(static_cast<std::int64_t>(options.recompute));
  const LatencyOptions& latency = options.latency;
  fp.Mix(latency.overlap_allreduce);
  fp.Mix(kOverlapEfficiency);  // keeps every existing digest valid
  fp.Mix(latency.check_memory);
  fp.Mix(latency.memory_cap);
  fp.Mix(static_cast<std::int64_t>(latency.schedule_kind));
  return fp.digest();
}

std::uint64_t FingerprintPlanRequest(const model::ModelProfile& model,
                                     const topo::Cluster& cluster,
                                     long global_batch_size,
                                     const PlannerOptions& options) {
  Fingerprint64 fp;
  fp.Mix("plan-request/v1");
  fp.Mix(FingerprintModel(model));
  fp.Mix(FingerprintCluster(cluster));
  fp.Mix(static_cast<std::int64_t>(global_batch_size));
  fp.Mix(FingerprintPlannerOptions(options));
  return fp.digest();
}

}  // namespace dapple::planner
