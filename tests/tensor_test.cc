#include <gtest/gtest.h>

#include "common/error.h"
#include "train/tensor.h"

namespace dapple::train {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.at(0, 0) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 7.0f);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, 3), Error);
}

TEST(Tensor, MatMulKnownValues) {
  Tensor a(2, 3);
  Tensor b(3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]].
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const Tensor c = a.MatMul(b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
  EXPECT_THROW(a.MatMul(a), Error);
}

TEST(Tensor, TransposeRoundTrip) {
  Rng rng(3);
  const Tensor t = Tensor::Random(3, 5, rng, 1.0f);
  const Tensor tt = t.Transposed().Transposed();
  EXPECT_EQ(Tensor::MaxAbsDiff(t, tt), 0.0f);
  EXPECT_EQ(t.Transposed().rows(), 5u);
}

TEST(Tensor, SliceAndStackInverse) {
  Rng rng(4);
  const Tensor t = Tensor::Random(6, 4, rng, 1.0f);
  std::vector<Tensor> parts;
  for (std::size_t r = 0; r < 6; r += 2) parts.push_back(t.RowSlice(r, r + 2));
  const Tensor back = Tensor::VStack(parts);
  EXPECT_EQ(Tensor::MaxAbsDiff(t, back), 0.0f);
  EXPECT_THROW(t.RowSlice(4, 8), Error);
  EXPECT_THROW(Tensor::VStack({}), Error);
}

TEST(Tensor, AddScaleFill) {
  Tensor a(2, 2, 1.0f);
  Tensor b(2, 2, 2.0f);
  a.AddInPlace(b).Scale(3.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 9.0f);
  a.Fill(0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 0.5f);
  EXPECT_THROW(a.AddInPlace(Tensor(3, 3)), Error);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng r1(9), r2(9);
  const Tensor a = Tensor::Random(4, 4, r1, 0.5f);
  const Tensor b = Tensor::Random(4, 4, r2, 0.5f);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
}

}  // namespace
}  // namespace dapple::train
