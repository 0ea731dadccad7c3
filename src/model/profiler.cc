#include "model/profiler.h"

#include <utility>

namespace dapple::model {

Profiler::Profiler(topo::DeviceSpec device) : device_(std::move(device)) {}

ProfileReport Profiler::Report(const ModelProfile& model) const {
  ProfileReport report;
  report.model = model.name();
  report.param_count = model.TotalParamCount();
  report.param_bytes = model.TotalParamBytes();
  report.profile_micro_batch = model.profile_micro_batch();
  const double samples = model.profile_micro_batch();
  report.memory_cost = model.BaselineMemory(0, model.num_layers()) +
                       model.ActivationMemory(0, model.num_layers(), samples);
  report.forward_time =
      model.ForwardTime(0, model.num_layers(), samples, device_.relative_speed);
  report.backward_time =
      model.BackwardTime(0, model.num_layers(), samples, device_.relative_speed);
  report.fits_single_device = report.memory_cost <= device_.memory;
  return report;
}

}  // namespace dapple::model
