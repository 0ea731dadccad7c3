#include <gtest/gtest.h>

#include "common/error.h"
#include "model/profile.h"
#include "model/profiler.h"
#include "model/zoo.h"

namespace dapple::model {
namespace {

ModelProfile TinyModel() {
  std::vector<LayerProfile> layers(3);
  for (int i = 0; i < 3; ++i) {
    layers[static_cast<std::size_t>(i)].name = "l" + std::to_string(i);
    layers[static_cast<std::size_t>(i)].forward_time = 0.010 * (i + 1);
    layers[static_cast<std::size_t>(i)].backward_time = 0.020 * (i + 1);
    layers[static_cast<std::size_t>(i)].fixed_overhead = 0.001;
    layers[static_cast<std::size_t>(i)].output_activation = 100 * (i + 1);
    layers[static_cast<std::size_t>(i)].activation_memory = 1000 * (i + 1);
    layers[static_cast<std::size_t>(i)].param_count = 10 * (i + 1);
  }
  return ModelProfile("tiny", std::move(layers), /*profile_micro_batch=*/4,
                      OptimizerKind::kAdam);
}

TEST(OptimizerKind, BytesPerParam) {
  EXPECT_EQ(OptimizerBytesPerParam(OptimizerKind::kSGD), 8u);
  EXPECT_EQ(OptimizerBytesPerParam(OptimizerKind::kAdam), 16u);
  EXPECT_EQ(OptimizerBytesPerParam(OptimizerKind::kRMSProp), 12u);
}

TEST(ModelProfile, ParamRangeQueries) {
  const ModelProfile m = TinyModel();
  EXPECT_EQ(m.TotalParamCount(), 60u);
  EXPECT_EQ(m.ParamCount(0, 1), 10u);
  EXPECT_EQ(m.ParamCount(1, 3), 50u);
  EXPECT_EQ(m.ParamCount(2, 2), 0u);
  EXPECT_EQ(m.ParamBytes(0, 3), 240u);  // fp32
  EXPECT_EQ(m.BaselineMemory(0, 3), 960u);  // Adam: 16 B/param
}

TEST(ModelProfile, ForwardTimeScalesLinearlyPlusFixed) {
  const ModelProfile m = TinyModel();
  // At the profile micro-batch (4): variable parts exactly as listed.
  EXPECT_NEAR(m.ForwardTime(0, 3, 4.0), 0.060 + 0.003, 1e-12);
  // Half the samples: variable halves, fixed overhead does not.
  EXPECT_NEAR(m.ForwardTime(0, 3, 2.0), 0.030 + 0.003, 1e-12);
  // Double speed device halves everything.
  EXPECT_NEAR(m.ForwardTime(0, 3, 4.0, 2.0), (0.060 + 0.003) / 2.0, 1e-12);
}

TEST(ModelProfile, BackwardTimeRangeAndScale) {
  const ModelProfile m = TinyModel();
  EXPECT_NEAR(m.BackwardTime(1, 3, 4.0), 0.100 + 0.002, 1e-12);
  EXPECT_NEAR(m.BackwardTime(1, 3, 8.0), 0.200 + 0.002, 1e-12);
}

TEST(ModelProfile, ActivationAtBoundary) {
  const ModelProfile m = TinyModel();
  EXPECT_EQ(m.ActivationAt(0, 4.0), 0u);  // model input
  EXPECT_EQ(m.ActivationAt(1, 4.0), 100u);
  EXPECT_EQ(m.ActivationAt(2, 4.0), 200u);
  EXPECT_EQ(m.ActivationAt(3, 4.0), 0u);  // loss boundary
  EXPECT_EQ(m.ActivationAt(1, 8.0), 200u);  // scales with samples
}

TEST(ModelProfile, ActivationMemoryRange) {
  const ModelProfile m = TinyModel();
  EXPECT_EQ(m.ActivationMemory(0, 3, 4.0), 6000u);
  EXPECT_EQ(m.ActivationMemory(1, 2, 2.0), 1000u);
}

TEST(ModelProfile, CheckpointMemoryIsPerLayerBoundaries) {
  const ModelProfile m = TinyModel();
  // Interior stage [1,3): one checkpoint per layer = inputs of layers 1
  // and 2 = boundary activations 1 and 2.
  EXPECT_EQ(m.CheckpointMemory(1, 3, 4.0), m.ActivationAt(1, 4.0) + m.ActivationAt(2, 4.0));
  EXPECT_LT(m.CheckpointMemory(1, 3, 4.0), m.ActivationMemory(1, 3, 4.0));
  // First stage stashes its own input footprint approximation.
  EXPECT_GT(m.CheckpointMemory(0, 2, 4.0), 0u);
  EXPECT_EQ(m.CheckpointMemory(1, 1, 4.0), 0u);
}

TEST(ModelProfile, MaxLayerActivationMemory) {
  const ModelProfile m = TinyModel();
  // Layers hold 1000/2000/3000 at the profile micro-batch of 4.
  EXPECT_EQ(m.MaxLayerActivationMemory(0, 3, 4.0), 3000u);
  EXPECT_EQ(m.MaxLayerActivationMemory(0, 2, 4.0), 2000u);
  EXPECT_EQ(m.MaxLayerActivationMemory(0, 3, 2.0), 1500u);
  EXPECT_EQ(m.MaxLayerActivationMemory(1, 1, 4.0), 0u);
}

TEST(ModelProfile, RangeValidation) {
  const ModelProfile m = TinyModel();
  EXPECT_THROW(m.ParamCount(-1, 2), Error);
  EXPECT_THROW(m.ParamCount(0, 4), Error);
  EXPECT_THROW(m.ParamCount(2, 1), Error);
  EXPECT_THROW(m.ForwardTime(0, 3, 0.0), Error);
  EXPECT_THROW(m.ActivationAt(4, 1.0), Error);
  EXPECT_THROW(m.layer(3), Error);
}

TEST(ModelProfile, RejectsEmptyModel) {
  EXPECT_THROW(ModelProfile("empty", {}, 1, OptimizerKind::kSGD), Error);
}

TEST(Profiler, ReportSummarizesTableIIFields) {
  const ModelProfile bert = MakeBert48();
  Profiler profiler(topo::DeviceSpec{});
  const ProfileReport report = profiler.Report(bert);
  EXPECT_EQ(report.model, "BERT-48");
  EXPECT_EQ(report.profile_micro_batch, 2);
  EXPECT_NEAR(report.param_count / 1e6, 640.0, 1.0);
  EXPECT_GT(report.memory_cost, report.param_count * 16);  // + activations
  EXPECT_TRUE(report.fits_single_device);
}

TEST(Profiler, AmoebaNetDoesNotFitOneDevice) {
  Profiler profiler(topo::DeviceSpec{});
  const ProfileReport report = profiler.Report(MakeAmoebaNet36());
  EXPECT_FALSE(report.fits_single_device);  // Table II: OOM on 16GB V100
}

}  // namespace
}  // namespace dapple::model
