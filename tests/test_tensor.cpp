// Tests for the dense tensor substrate and the host-side neural ops.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/tensor.hpp"

namespace tlp::tensor {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  t.at(2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(2, 3), 5.0f);
  EXPECT_FLOAT_EQ(t.row(2)[3], 5.0f);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng a(1), b(1);
  EXPECT_EQ(Tensor::random(4, 4, a), Tensor::random(4, 4, b));
}

TEST(Tensor, MaxAbsDiffAndAllclose) {
  Tensor a(2, 2), b(2, 2);
  a.at(0, 0) = 1.0f;
  b.at(0, 0) = 1.0001f;
  EXPECT_NEAR(max_abs_diff(a, b), 1e-4, 1e-6);
  EXPECT_TRUE(allclose(a, b, 1e-3, 1e-5));
  EXPECT_FALSE(allclose(a, b, 1e-6, 1e-7));
  EXPECT_FALSE(allclose(a, Tensor(2, 3)));
}

TEST(Tensor, AllcloseRejectsNanAndMismatchedInfinities) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto one = [](float x) {
    Tensor t(1, 1);
    t.at(0, 0) = x;
    return t;
  };
  EXPECT_FALSE(allclose(one(nan), one(1.0f), 1e-3, 1e-4));
  EXPECT_FALSE(allclose(one(1.0f), one(nan), 1e-3, 1e-4));
  EXPECT_FALSE(allclose(one(nan), one(nan), 1e-3, 1e-4));
  EXPECT_FALSE(allclose(one(inf), one(-inf), 1e-3, 1e-4));
  EXPECT_FALSE(allclose(one(1.0f), one(inf), 1e-3, 1e-4));
  EXPECT_FALSE(allclose(one(inf), one(1.0f), 1e-3, 1e-4));
  EXPECT_TRUE(allclose(one(inf), one(inf), 1e-3, 1e-4));
  EXPECT_TRUE(allclose(one(-inf), one(-inf), 1e-3, 1e-4));
  // An all-NaN output against a finite reference, the case that used to pass.
  Tensor out(2, 2);
  for (float& x : out.flat()) x = nan;
  EXPECT_FALSE(allclose(out, Tensor(2, 2), 1e-3, 1e-4));
}

TEST(DenseOps, MatmulAgainstHandComputed) {
  Tensor a(2, 3), w(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float wv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.flat().begin());
  std::copy(wv, wv + 6, w.flat().begin());
  const Tensor c = matmul(a, w);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(DenseOps, MatmulBlockedMatchesNaive) {
  Rng rng(2);
  const Tensor a = Tensor::random(70, 130, rng);
  const Tensor w = Tensor::random(130, 33, rng);
  const Tensor c = matmul(a, w);
  // Naive reference.
  Tensor ref(70, 33);
  for (std::int64_t i = 0; i < 70; ++i)
    for (std::int64_t k = 0; k < 130; ++k)
      for (std::int64_t j = 0; j < 33; ++j)
        ref.at(i, j) += a.at(i, k) * w.at(k, j);
  EXPECT_TRUE(allclose(c, ref, 1e-4, 1e-4));
}

TEST(DenseOps, MatmulRejectsShapeMismatch) {
  EXPECT_THROW(matmul(Tensor(2, 3), Tensor(4, 2)), tlp::CheckError);
}

TEST(DenseOps, Bias) {
  Tensor x(2, 2), b(1, 2);
  b.at(0, 0) = 1.0f;
  b.at(0, 1) = -1.0f;
  const Tensor y = add_bias(x, b);
  EXPECT_FLOAT_EQ(y.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), -1.0f);
}

TEST(DenseOps, ReluAndLeaky) {
  Tensor x(1, 2);
  x.at(0, 0) = -2.0f;
  x.at(0, 1) = 3.0f;
  EXPECT_FLOAT_EQ(relu(x).at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu(x).at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(leaky_relu(x, 0.1f).at(0, 0), -0.2f);
}

TEST(DenseOps, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor x = Tensor::random(5, 7, rng, 10.0f);
  const Tensor y = softmax_rows(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    float sum = 0;
    for (const float v : y.row(r)) {
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(DenseOps, SoftmaxNumericallyStable) {
  Tensor x(1, 2);
  x.at(0, 0) = 1000.0f;
  x.at(0, 1) = 1001.0f;
  const Tensor y = softmax_rows(x);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 1), 1.0f, 1e-5);
}

TEST(DenseOps, DropoutRateAndScale) {
  Rng rng(4);
  Tensor x(100, 100);
  x.fill(1.0f);
  const Tensor y = dropout(x, 0.3, rng);
  std::int64_t zeros = 0;
  for (const float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.7f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.02);
}

TEST(DenseOps, L2Normalize) {
  Tensor x(1, 2);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  const Tensor y = l2_normalize_rows(x);
  EXPECT_NEAR(y.at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(y.at(0, 1), 0.8f, 1e-6);
  // Zero rows stay zero (no NaN).
  Tensor z(1, 2);
  EXPECT_FLOAT_EQ(l2_normalize_rows(z).at(0, 0), 0.0f);
}

}  // namespace
}  // namespace tlp::tensor
