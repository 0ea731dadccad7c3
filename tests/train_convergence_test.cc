// Convergence equivalence (paper §VI-A: "convergence is safely
// preserved"): full training runs under serial, data-parallel and
// DAPPLE-pipelined execution must produce identical loss curves and final
// weights, and must actually converge on a learnable task. Parameterized
// across optimizers — the paper trains with Adam, SGD and RMSProp.
#include <gtest/gtest.h>

#include <memory>

#include "train/trainer.h"

namespace dapple::train {
namespace {

struct ConvergenceCase {
  const char* name;
  std::function<std::unique_ptr<Optimizer>()> make_optimizer;
  // Adaptive optimizers divide by accumulated squared gradients, which
  // amplifies float32 summation-order differences between strategies over
  // long runs; they get wider (still tight) tolerances.
  double loss_tolerance = 1e-4;
  float weight_tolerance = 5e-3f;
};

class ConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {
 protected:
  ConvergenceTest() {
    DatasetSpec spec;
    spec.samples = 64;
    spec.in_features = 5;
    spec.out_features = 2;
    spec.teacher_hidden = 8;
    spec.seed = 2024;
    data_ = MakeTeacherDataset(spec);
    Rng rng(77);
    model_ = MlpModel::MakeMlp(5, 12, 2, /*hidden_layers=*/2, rng);
  }
  Dataset data_;
  MlpModel model_;
};

TEST_P(ConvergenceTest, AllStrategiesProduceIdenticalTrajectories) {
  const auto& param = GetParam();

  TrainerOptions serial;
  serial.strategy = Strategy::kSerial;
  serial.iterations = 60;
  auto opt1 = param.make_optimizer();
  TrainingRun run_serial = Train(model_, data_, *opt1, serial);

  TrainerOptions dp = serial;
  dp.strategy = Strategy::kDataParallel;
  dp.replicas = 4;
  auto opt2 = param.make_optimizer();
  TrainingRun run_dp = Train(model_, data_, *opt2, dp);

  TrainerOptions pipe = serial;
  pipe.strategy = Strategy::kPipelined;
  pipe.pipeline.stage_bounds = {0, 2, 5};  // Linear Tanh | Linear Tanh Linear
  pipe.pipeline.micro_batch = 8;
  auto opt3 = param.make_optimizer();
  TrainingRun run_pipe = Train(model_, data_, *opt3, pipe);

  // Loss curves match step for step.
  ASSERT_EQ(run_serial.losses.size(), run_pipe.losses.size());
  for (std::size_t i = 0; i < run_serial.losses.size(); ++i) {
    EXPECT_NEAR(run_serial.losses[i], run_dp.losses[i],
                param.loss_tolerance * (1.0 + std::abs(run_serial.losses[i])))
        << param.name << " iter " << i;
    EXPECT_NEAR(run_serial.losses[i], run_pipe.losses[i],
                param.loss_tolerance * (1.0 + std::abs(run_serial.losses[i])))
        << param.name << " iter " << i;
  }

  // Final weights match.
  EXPECT_LT(MaxWeightDiff(run_serial.final_model, run_dp.final_model),
            param.weight_tolerance);
  EXPECT_LT(MaxWeightDiff(run_serial.final_model, run_pipe.final_model),
            param.weight_tolerance);

  // And training actually converged (teacher task is learnable).
  EXPECT_LT(run_serial.final_loss(), 0.5 * run_serial.losses.front());
}

INSTANTIATE_TEST_SUITE_P(
    Optimizers, ConvergenceTest,
    ::testing::Values(ConvergenceCase{"SGD", [] { return MakeSgd(0.05f); }},
                      ConvergenceCase{"Momentum", [] { return MakeMomentum(0.02f); }},
                      ConvergenceCase{"Adam", [] { return MakeAdam(0.01f); }},
                      ConvergenceCase{"RMSProp", [] { return MakeRmsProp(0.005f); },
                                      /*loss_tolerance=*/3e-2, /*weight_tolerance=*/0.05f}),
    [](const auto& info) { return info.param.name; });

TEST(Convergence, RecomputePipelineTrainsIdentically) {
  DatasetSpec spec;
  spec.samples = 32;
  spec.in_features = 4;
  spec.out_features = 1;
  const Dataset data = MakeTeacherDataset(spec);
  Rng rng(5);
  const MlpModel model = MlpModel::MakeMlp(4, 8, 1, 2, rng);

  TrainerOptions plain;
  plain.strategy = Strategy::kPipelined;
  plain.iterations = 40;
  plain.pipeline.stage_bounds = {0, 2, 5};
  plain.pipeline.micro_batch = 4;
  TrainerOptions rc = plain;
  rc.pipeline.recompute = true;

  auto o1 = MakeSgd(0.05f);
  auto o2 = MakeSgd(0.05f);
  TrainingRun r_plain = Train(model, data, *o1, plain);
  TrainingRun r_rc = Train(model, data, *o2, rc);
  for (std::size_t i = 0; i < r_plain.losses.size(); ++i) {
    EXPECT_NEAR(r_plain.losses[i], r_rc.losses[i], 1e-5);
  }
  EXPECT_LT(MaxWeightDiff(r_plain.final_model, r_rc.final_model), 1e-4f);
}

TEST(Convergence, StashBoundHoldsAcrossWholeRun) {
  DatasetSpec spec;
  spec.samples = 32;
  spec.in_features = 4;
  spec.out_features = 1;
  const Dataset data = MakeTeacherDataset(spec);
  Rng rng(6);
  const MlpModel model = MlpModel::MakeMlp(4, 8, 1, 2, rng);

  TrainerOptions pipe;
  pipe.strategy = Strategy::kPipelined;
  pipe.iterations = 10;
  pipe.pipeline.stage_bounds = {0, 2, 5};
  pipe.pipeline.micro_batch = 2;  // M = 16 per iteration
  auto opt = MakeSgd(0.05f);
  const TrainingRun run = Train(model, data, *opt, pipe);
  ASSERT_EQ(run.max_in_flight.size(), 2u);
  EXPECT_LE(run.max_in_flight[0], 2);  // K_0 = S = 2
  EXPECT_EQ(run.max_in_flight[1], 1);
}

TEST(Convergence, StrategyNames) {
  EXPECT_STREQ(ToString(Strategy::kSerial), "serial");
  EXPECT_STREQ(ToString(Strategy::kDataParallel), "data-parallel");
  EXPECT_STREQ(ToString(Strategy::kPipelined), "pipelined");
}

}  // namespace
}  // namespace dapple::train
