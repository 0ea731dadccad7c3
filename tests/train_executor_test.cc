// THE equivalence tests: serial, data-parallel and DAPPLE/GPipe-pipelined
// execution (with and without re-computation) must produce identical
// gradients at the same global batch — the paper's §VI-A correctness
// claim, verified on real numbers. Plus the numeric counterpart of the
// memory claims: in-flight stash counts.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "train/data.h"
#include "train/executor.h"
#include "train/trainer.h"

namespace dapple::train {
namespace {

constexpr float kTol = 1e-4f;  // float32 summation-order noise

struct Fixture {
  Fixture() : rng(42) {
    DatasetSpec spec;
    spec.samples = 32;
    spec.in_features = 6;
    spec.out_features = 3;
    spec.seed = 7;
    data = MakeTeacherDataset(spec);
    model = MlpModel::MakeMlp(6, 10, 3, /*hidden_layers=*/3, rng);
  }
  Rng rng;
  Dataset data;
  MlpModel model;
};

PipelineRunOptions Pipeline(std::vector<int> bounds, int micro,
                            runtime::ScheduleKind kind = runtime::ScheduleKind::kDapple,
                            bool recompute = false) {
  PipelineRunOptions o;
  o.stage_bounds = std::move(bounds);
  o.micro_batch = micro;
  o.schedule.kind = kind;
  o.recompute = recompute;
  return o;
}

TEST(Equivalence, DataParallelMatchesSerial) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  for (int replicas : {2, 4, 8}) {
    const BackpropResult dp =
        RunDataParallel(f.model, f.data.inputs, f.data.targets, replicas);
    EXPECT_LT(MaxGradientDiff(serial.grads, dp.grads), kTol) << replicas << " replicas";
    EXPECT_NEAR(serial.loss, dp.loss, 1e-5);
  }
}

TEST(Equivalence, DapplePipelineMatchesSerial) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  // MakeMlp(6,10,3,3): Linear Tanh Linear Tanh Linear Tanh Linear = 7 layers.
  for (int micro : {4, 8, 16}) {
    const BackpropResult pipe = RunPipelined(f.model, f.data.inputs, f.data.targets,
                                             Pipeline({0, 3, 7}, micro));
    EXPECT_LT(MaxGradientDiff(serial.grads, pipe.grads), kTol) << "micro " << micro;
    EXPECT_NEAR(serial.loss, pipe.loss, 1e-5);
  }
}

TEST(Equivalence, GPipeScheduleMatchesSerial) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  const BackpropResult gpipe =
      RunPipelined(f.model, f.data.inputs, f.data.targets,
                   Pipeline({0, 3, 7}, 4, runtime::ScheduleKind::kGPipe));
  EXPECT_LT(MaxGradientDiff(serial.grads, gpipe.grads), kTol);
}

TEST(Equivalence, RecomputationDoesNotChangeGradients) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  for (auto kind : {runtime::ScheduleKind::kDapple, runtime::ScheduleKind::kGPipe}) {
    const BackpropResult rc = RunPipelined(f.model, f.data.inputs, f.data.targets,
                                           Pipeline({0, 2, 5, 7}, 8, kind, true));
    EXPECT_LT(MaxGradientDiff(serial.grads, rc.grads), kTol)
        << runtime::ToString(kind) << " + recompute";
  }
}

TEST(Equivalence, ThreeAndFourStagePipelines) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  for (const auto& bounds :
       std::vector<std::vector<int>>{{0, 2, 4, 7}, {0, 1, 3, 5, 7}, {0, 7}}) {
    const BackpropResult pipe =
        RunPipelined(f.model, f.data.inputs, f.data.targets, Pipeline(bounds, 8));
    EXPECT_LT(MaxGradientDiff(serial.grads, pipe.grads), kTol)
        << bounds.size() - 1 << " stages";
  }
}

// Every family the trainer runs, V shapes included, on one 4-stage MLP:
// the V groups interleave two chunks, so this is the trainer walking a
// merged two-chunk order.
TEST(Equivalence, EveryTrainableFamilyMatchesSerial) {
  Fixture f;
  const BackpropResult serial = RunSerial(f.model, f.data.inputs, f.data.targets);
  for (auto kind : {runtime::ScheduleKind::kDapple, runtime::ScheduleKind::kGPipe,
                    runtime::ScheduleKind::kVMin, runtime::ScheduleKind::kVHalf}) {
    const BackpropResult pipe = RunPipelined(f.model, f.data.inputs, f.data.targets,
                                             Pipeline({0, 2, 4, 6, 7}, 4, kind));
    EXPECT_LT(MaxGradientDiff(serial.grads, pipe.grads), kTol) << runtime::ToString(kind);
    EXPECT_NEAR(serial.loss, pipe.loss, 1e-5) << runtime::ToString(kind);
  }
}

TEST(Memory, DappleStashBoundedByWarmupDepth) {
  // The numeric counterpart of early backward scheduling: stage i keeps at
  // most K_i = S - i (policy PA) micro-batch stashes live.
  Fixture f;
  const int micro = 2;  // 16 micro-batches
  const BackpropResult pipe = RunPipelined(f.model, f.data.inputs, f.data.targets,
                                           Pipeline({0, 2, 4, 7}, micro));
  ASSERT_EQ(pipe.max_in_flight.size(), 3u);
  EXPECT_LE(pipe.max_in_flight[0], 3);
  EXPECT_LE(pipe.max_in_flight[1], 2);
  EXPECT_EQ(pipe.max_in_flight[2], 1);
}

TEST(Memory, GPipeStashGrowsToM) {
  Fixture f;
  const int micro = 2;  // M = 16
  const BackpropResult gpipe =
      RunPipelined(f.model, f.data.inputs, f.data.targets,
                   Pipeline({0, 2, 4, 7}, micro, runtime::ScheduleKind::kGPipe));
  for (int stash : gpipe.max_in_flight) EXPECT_EQ(stash, 16);
}

TEST(Memory, PolicyBKeepsMoreInFlight) {
  Fixture f;
  PipelineRunOptions pb = Pipeline({0, 2, 4, 7}, 2);
  pb.schedule.warmup = runtime::WarmupPolicy::kPB;
  const BackpropResult r = RunPipelined(f.model, f.data.inputs, f.data.targets, pb);
  EXPECT_LE(r.max_in_flight[0], 5);  // 2S-1 = 5
  EXPECT_GE(r.max_in_flight[0], 3);  // more than PA's S
}

TEST(Async, PipeDreamStyleDivergesFromSync) {
  // The paper's §I motivation: async pipelining applies stale gradients
  // and must stash one weight version per in-flight micro-batch; the
  // resulting weights differ from synchronous training.
  Fixture f;
  MlpModel sync_model = f.model.Clone();
  const BackpropResult sync = RunSerial(sync_model, f.data.inputs, f.data.targets);
  // One SGD step of the sync gradients.
  auto params = sync_model.Params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = sync.grads[i].data();
    for (std::size_t k = 0; k < params[i]->size(); ++k) p[k] -= 0.05f * g[k];
  }

  MlpModel async_model = f.model.Clone();
  const AsyncResult async = RunAsyncPipeDream(async_model, f.data.inputs, f.data.targets,
                                              Pipeline({0, 3, 7}, 4), 0.05f);
  EXPECT_EQ(async.weight_versions_kept, 2);  // one per in-flight micro-batch
  EXPECT_GT(MaxWeightDiff(sync_model, async_model), 1e-6f);
}

TEST(Validation, BadOptionsRejected) {
  Fixture f;
  EXPECT_THROW(RunPipelined(f.model, f.data.inputs, f.data.targets,
                            Pipeline({0, 3}, 8)),  // does not cover model
               Error);
  EXPECT_THROW(RunPipelined(f.model, f.data.inputs, f.data.targets,
                            Pipeline({0, 3, 7}, 5)),  // 5 does not divide 32
               Error);
  EXPECT_THROW(RunPipelined(f.model, f.data.inputs, f.data.targets,
                            Pipeline({0, 3, 3, 7}, 8)),  // empty stage
               Error);
  EXPECT_THROW(RunDataParallel(f.model, f.data.inputs, f.data.targets, 5), Error);
}

// The trainer has no numeric backward-weight half, so DAPPLE-2BP is
// refused up front by name rather than run and reported as a deadlock.
TEST(Validation, SplitBackwardFamilyRejected) {
  Fixture f;
  try {
    RunPipelined(f.model, f.data.inputs, f.data.targets,
                 Pipeline({0, 3, 7}, 8, runtime::ScheduleKind::kDappleSplitBw));
    FAIL() << "DAPPLE-2BP ran";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DAPPLE-2BP"), std::string::npos) << e.what();
    EXPECT_EQ(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
  }
}

TEST(Dataset, TeacherIsDeterministic) {
  DatasetSpec spec;
  spec.samples = 16;
  const Dataset a = MakeTeacherDataset(spec);
  const Dataset b = MakeTeacherDataset(spec);
  EXPECT_EQ(Tensor::MaxAbsDiff(a.inputs, b.inputs), 0.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff(a.targets, b.targets), 0.0f);
  spec.seed = 1;
  const Dataset c = MakeTeacherDataset(spec);
  EXPECT_GT(Tensor::MaxAbsDiff(a.inputs, c.inputs), 0.0f);
}

TEST(Dataset, NoiseChangesTargetsOnly) {
  DatasetSpec spec;
  spec.samples = 16;
  DatasetSpec noisy = spec;
  noisy.label_noise = 0.5;
  const Dataset clean = MakeTeacherDataset(spec);
  const Dataset with_noise = MakeTeacherDataset(noisy);
  EXPECT_EQ(Tensor::MaxAbsDiff(clean.inputs, with_noise.inputs), 0.0f);
  EXPECT_GT(Tensor::MaxAbsDiff(clean.targets, with_noise.targets), 0.0f);
}

}  // namespace
}  // namespace dapple::train

// -- appended: hybrid replication (paper Fig. 9 on real numbers) ---------

namespace dapple::train {
namespace {

TEST(Hybrid, ReplicatedStagesMatchSerial) {
  Rng rng(43);
  DatasetSpec spec;
  spec.samples = 32;
  spec.in_features = 6;
  spec.out_features = 3;
  const Dataset data = MakeTeacherDataset(spec);
  MlpModel model = MlpModel::MakeMlp(6, 10, 3, 3, rng);
  const BackpropResult serial = RunSerial(model, data.inputs, data.targets);

  PipelineRunOptions o;
  o.stage_bounds = {0, 3, 7};
  o.micro_batch = 8;
  for (std::vector<int> replicas :
       std::vector<std::vector<int>>{{2, 1}, {1, 2}, {4, 2}, {2, 4}}) {
    o.stage_replicas = replicas;
    MlpModel copy = model.Clone();
    const BackpropResult hybrid = RunPipelined(copy, data.inputs, data.targets, o);
    EXPECT_LT(MaxGradientDiff(serial.grads, hybrid.grads), 1e-4f)
        << replicas[0] << ":" << replicas[1];
    EXPECT_NEAR(serial.loss, hybrid.loss, 1e-5);
  }
}

TEST(Hybrid, ReplicationWithRecompute) {
  Rng rng(44);
  DatasetSpec spec;
  spec.samples = 16;
  spec.in_features = 4;
  spec.out_features = 2;
  const Dataset data = MakeTeacherDataset(spec);
  MlpModel model = MlpModel::MakeMlp(4, 8, 2, 2, rng);
  const BackpropResult serial = RunSerial(model, data.inputs, data.targets);

  PipelineRunOptions o;
  o.stage_bounds = {0, 2, 5};
  o.micro_batch = 4;
  o.stage_replicas = {2, 2};
  o.recompute = true;
  const BackpropResult hybrid = RunPipelined(model, data.inputs, data.targets, o);
  EXPECT_LT(MaxGradientDiff(serial.grads, hybrid.grads), 1e-4f);
}

TEST(Hybrid, InvalidReplicationRejected) {
  Rng rng(45);
  DatasetSpec spec;
  spec.samples = 16;
  spec.in_features = 4;
  spec.out_features = 2;
  const Dataset data = MakeTeacherDataset(spec);
  MlpModel model = MlpModel::MakeMlp(4, 8, 2, 2, rng);
  PipelineRunOptions o;
  o.stage_bounds = {0, 2, 5};
  o.micro_batch = 4;
  o.stage_replicas = {3, 1};  // 3 does not divide micro-batch 4
  EXPECT_THROW(RunPipelined(model, data.inputs, data.targets, o), Error);
  o.stage_replicas = {2};  // arity mismatch
  EXPECT_THROW(RunPipelined(model, data.inputs, data.targets, o), Error);
}

}  // namespace
}  // namespace dapple::train

// -- appended: randomized equivalence sweep ------------------------------

namespace dapple::train {
namespace {

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, PipelineAlwaysMatchesSerial) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()) * 31);
  DatasetSpec spec;
  spec.samples = 8 * static_cast<std::size_t>(rng.UniformInt(2, 6));
  spec.in_features = static_cast<std::size_t>(rng.UniformInt(2, 8));
  spec.out_features = static_cast<std::size_t>(rng.UniformInt(1, 4));
  spec.seed = rng.Fork();
  const Dataset data = MakeTeacherDataset(spec);
  const int hidden_layers = static_cast<int>(rng.UniformInt(1, 4));
  MlpModel model = MlpModel::MakeMlp(spec.in_features, 8, spec.out_features,
                                     hidden_layers, rng, rng.Bernoulli(0.5));
  const BackpropResult serial = RunSerial(model, data.inputs, data.targets);

  // Random contiguous stage bounds.
  PipelineRunOptions o;
  o.stage_bounds = {0};
  const int layers = model.num_layers();
  const int stages = static_cast<int>(rng.UniformInt(1, std::min(3, layers)));
  for (int s = 1; s < stages; ++s) {
    int candidate = static_cast<int>(rng.UniformInt(o.stage_bounds.back() + 1,
                                                    layers - (stages - s)));
    o.stage_bounds.push_back(candidate);
  }
  o.stage_bounds.push_back(layers);
  // Random micro-batch dividing the sample count.
  std::vector<int> divisors;
  for (int d = 1; d <= static_cast<int>(spec.samples); ++d) {
    if (static_cast<int>(spec.samples) % d == 0) divisors.push_back(d);
  }
  o.micro_batch = divisors[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<long>(divisors.size()) - 1))];
  o.schedule.kind = rng.Bernoulli(0.5) ? runtime::ScheduleKind::kDapple
                                       : runtime::ScheduleKind::kGPipe;
  o.schedule.warmup = rng.Bernoulli(0.5) ? runtime::WarmupPolicy::kPA
                                         : runtime::WarmupPolicy::kPB;
  o.recompute = rng.Bernoulli(0.3);

  const BackpropResult pipe = RunPipelined(model, data.inputs, data.targets, o);
  EXPECT_LT(MaxGradientDiff(serial.grads, pipe.grads), 2e-4f)
      << "stages=" << stages << " micro=" << o.micro_batch
      << " schedule=" << runtime::ToString(o.schedule.kind)
      << " recompute=" << o.recompute;
  EXPECT_NEAR(serial.loss, pipe.loss, 1e-5 * (1 + std::abs(serial.loss)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace dapple::train
