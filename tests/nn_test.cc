// Unit tests for nn/: matrix algebra, layer gradients (checked against
// numerical differentiation), the MLP container, optimizers, the triplet
// loss, and the frozen random projection.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/random_projection.h"
#include "nn/serialize.h"
#include "nn/triplet.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/random.h"

namespace tasti::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng, float scale = 1.0f) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal()) * scale;
  }
  return m;
}

// ---------- Matrix ----------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.At(2, 3), 1.5f);
  m.At(1, 2) = -2.0f;
  EXPECT_EQ(m.Row(1)[2], -2.0f);
}

TEST(MatrixTest, FillAddScale) {
  Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
  a.Add(b);
  EXPECT_EQ(a.At(0, 0), 3.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a.At(1, 1), 6.0f);
  a.Fill(0.0f);
  EXPECT_EQ(a.At(0, 1), 0.0f);
}

TEST(MatrixTest, GatherRowsSelectsAndDuplicates) {
  Matrix m(3, 2);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 2; ++c) m.At(r, c) = static_cast<float>(r * 10 + c);
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.At(0, 1), 21.0f);
  EXPECT_EQ(g.At(1, 0), 0.0f);
  EXPECT_EQ(g.At(2, 0), 20.0f);
}

TEST(MatrixTest, AppendRowsFromMatchesGatherRows) {
  Rng rng(9);
  Matrix src = RandomMatrix(8, 3, &rng);
  // Mixes contiguous runs (1,2,3 and 5,6), jumps, and a repeat.
  std::vector<size_t> indices = {1, 2, 3, 0, 7, 5, 6, 0};
  Matrix expected = src.GatherRows(indices);

  // Appending into a default-constructed matrix adopts the column count.
  Matrix fresh;
  fresh.AppendRowsFrom(src, indices);
  ASSERT_EQ(fresh.rows(), expected.rows());
  ASSERT_EQ(fresh.cols(), expected.cols());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fresh.data()[i], expected.data()[i]);
  }

  // Appending onto existing rows preserves them and extends.
  Matrix grown = RandomMatrix(2, 3, &rng);
  const Matrix base = grown;
  grown.AppendRowsFrom(src, indices);
  ASSERT_EQ(grown.rows(), base.rows() + indices.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(grown.data()[i], base.data()[i]);
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(grown.data()[base.size() + i], expected.data()[i]);
  }

  // Appending nothing is a no-op.
  grown.AppendRowsFrom(src, {});
  EXPECT_EQ(grown.rows(), base.rows() + indices.size());
}

TEST(MatrixTest, ReserveRowsMakesAppendsCopyFree) {
  Rng rng(11);
  Matrix src = RandomMatrix(4, 5, &rng);
  Matrix m;
  m.AppendRowsFrom(src, {0});
  m.ReserveRows(64);
  EXPECT_GE(m.row_capacity(), 64u);
  const float* before = m.data();
  for (size_t i = 0; i < 63; ++i) {
    m.AppendRowsFrom(src, {i % src.rows()});
  }
  // Within reserved capacity no reallocation (hence no full copy) happens.
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.rows(), 64u);
}

TEST(MatrixTest, RowSliceAndVStackRoundTrip) {
  Rng rng(1);
  Matrix m = RandomMatrix(6, 3, &rng);
  Matrix top = m.RowSlice(0, 2);
  Matrix mid = m.RowSlice(2, 5);
  Matrix bot = m.RowSlice(5, 6);
  Matrix stacked = Matrix::VStack({&top, &mid, &bot});
  ASSERT_EQ(stacked.rows(), m.rows());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(stacked.data()[i], m.data()[i]);
  }
}

TEST(MatrixTest, GemmMatchesManual) {
  Matrix a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c;
  Gemm(a, b, &c);
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatrixTest, GemmBTMatchesGemmWithTranspose) {
  Rng rng(2);
  Matrix a = RandomMatrix(4, 5, &rng);
  Matrix b = RandomMatrix(3, 5, &rng);  // b^T is 5x3
  Matrix bt(5, 3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 5; ++j) bt.At(j, i) = b.At(i, j);
  Matrix expected, got;
  Gemm(a, bt, &expected);
  GemmBT(a, b, &got);
  ASSERT_EQ(got.rows(), expected.rows());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4f);
  }
}

TEST(MatrixTest, GemmATAccumAccumulates) {
  Rng rng(3);
  Matrix a = RandomMatrix(4, 2, &rng);
  Matrix b = RandomMatrix(4, 3, &rng);
  Matrix at(2, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 2; ++j) at.At(j, i) = a.At(i, j);
  Matrix expected;
  Gemm(at, b, &expected);
  Matrix got(2, 3, 1.0f);  // pre-filled: accumulation adds on top
  GemmATAccum(a, b, &got);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i] + 1.0f, 1e-4f);
  }
}

TEST(MatrixTest, DistanceAndDot) {
  Matrix a(1, 3), b(1, 3);
  float av[] = {1, 2, 3}, bv[] = {4, 6, 3};
  std::copy(av, av + 3, a.data());
  std::copy(bv, bv + 3, b.data());
  EXPECT_EQ(SquaredDistance(a, 0, b, 0), 25.0f);
  EXPECT_EQ(Distance(a, 0, b, 0), 5.0f);
  EXPECT_EQ(RowDot(a, 0, b, 0), 4.0f + 12.0f + 9.0f);
}

// ---------- Layer gradient checks ----------

// Numerically checks dLoss/dInput for a layer under loss = sum(out * probe).
void CheckInputGradient(Layer* layer, const Matrix& input, float tol = 2e-2f) {
  Rng rng(99);
  Matrix probe = RandomMatrix(input.rows(), layer->OutputDim(input.cols()), &rng);

  Matrix out = layer->Forward(input);
  Matrix analytic = layer->Backward(probe);

  const float eps = 1e-3f;
  Matrix perturbed = input;
  for (size_t i = 0; i < input.size(); ++i) {
    perturbed.data()[i] = input.data()[i] + eps;
    Matrix out_hi = layer->Forward(perturbed);
    perturbed.data()[i] = input.data()[i] - eps;
    Matrix out_lo = layer->Forward(perturbed);
    perturbed.data()[i] = input.data()[i];
    float loss_hi = 0.0f, loss_lo = 0.0f;
    for (size_t j = 0; j < out_hi.size(); ++j) {
      loss_hi += out_hi.data()[j] * probe.data()[j];
      loss_lo += out_lo.data()[j] * probe.data()[j];
    }
    const float numeric = (loss_hi - loss_lo) / (2.0f * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "input gradient mismatch at flat index " << i;
  }
}

TEST(LayerGradTest, LinearInputGradient) {
  Rng rng(4);
  Linear layer(4, 3, &rng);
  Matrix input = RandomMatrix(5, 4, &rng);
  CheckInputGradient(&layer, input);
}

TEST(LayerGradTest, LinearParameterGradient) {
  Rng rng(5);
  Linear layer(3, 2, &rng);
  Matrix input = RandomMatrix(4, 3, &rng);
  Matrix probe = RandomMatrix(4, 2, &rng);

  layer.weight().ZeroGrad();
  layer.bias().ZeroGrad();
  layer.Forward(input);
  layer.Backward(probe);

  const float eps = 1e-3f;
  auto loss_at = [&]() {
    Matrix out = layer.Forward(input);
    float loss = 0.0f;
    for (size_t j = 0; j < out.size(); ++j) loss += out.data()[j] * probe.data()[j];
    return loss;
  };
  // Weights.
  for (size_t i = 0; i < layer.weight().value.size(); ++i) {
    float& w = layer.weight().value.data()[i];
    const float orig = w;
    w = orig + eps;
    const float hi = loss_at();
    w = orig - eps;
    const float lo = loss_at();
    w = orig;
    EXPECT_NEAR(layer.weight().grad.data()[i], (hi - lo) / (2 * eps), 2e-2f);
  }
  // Bias.
  for (size_t i = 0; i < layer.bias().value.size(); ++i) {
    float& b = layer.bias().value.data()[i];
    const float orig = b;
    b = orig + eps;
    const float hi = loss_at();
    b = orig - eps;
    const float lo = loss_at();
    b = orig;
    EXPECT_NEAR(layer.bias().grad.data()[i], (hi - lo) / (2 * eps), 2e-2f);
  }
}

TEST(LayerGradTest, ReLUInputGradient) {
  Rng rng(6);
  ReLU layer;
  // Keep activations away from the kink so numeric gradients are clean.
  Matrix input = RandomMatrix(5, 4, &rng);
  for (size_t i = 0; i < input.size(); ++i) {
    if (std::abs(input.data()[i]) < 0.05f) input.data()[i] = 0.2f;
  }
  CheckInputGradient(&layer, input);
}

TEST(LayerGradTest, TanhInputGradient) {
  Rng rng(7);
  Tanh layer;
  Matrix input = RandomMatrix(5, 4, &rng);
  CheckInputGradient(&layer, input);
}

TEST(LayerGradTest, L2NormalizeInputGradient) {
  Rng rng(8);
  L2Normalize layer;
  Matrix input = RandomMatrix(5, 4, &rng);
  // Keep rows away from the epsilon floor.
  for (size_t r = 0; r < input.rows(); ++r) input.At(r, 0) += 2.0f;
  CheckInputGradient(&layer, input);
}

TEST(LayerTest, ReLUClampsNegatives) {
  ReLU relu;
  Matrix input(1, 3);
  input.At(0, 0) = -1.0f;
  input.At(0, 1) = 0.0f;
  input.At(0, 2) = 2.0f;
  Matrix out = relu.Forward(input);
  EXPECT_EQ(out.At(0, 0), 0.0f);
  EXPECT_EQ(out.At(0, 1), 0.0f);
  EXPECT_EQ(out.At(0, 2), 2.0f);
}

TEST(LayerTest, L2NormalizeProducesUnitRows) {
  Rng rng(9);
  L2Normalize layer;
  Matrix input = RandomMatrix(8, 5, &rng);
  Matrix out = layer.Forward(input);
  for (size_t r = 0; r < out.rows(); ++r) {
    float norm2 = 0.0f;
    for (size_t c = 0; c < out.cols(); ++c) norm2 += out.At(r, c) * out.At(r, c);
    EXPECT_NEAR(norm2, 1.0f, 1e-5f);
  }
}

// ---------- MLP ----------

TEST(MlpTest, ForwardInferAgree) {
  Rng rng(10);
  Mlp net = Mlp::MakeEmbeddingNet(6, 16, 4, &rng);
  Matrix input = RandomMatrix(7, 6, &rng);
  Matrix trained_path = net.Forward(input);
  Matrix infer_path = net.Infer(input);
  ASSERT_EQ(trained_path.rows(), infer_path.rows());
  for (size_t i = 0; i < trained_path.size(); ++i) {
    EXPECT_NEAR(trained_path.data()[i], infer_path.data()[i], 1e-6f);
  }
}

TEST(MlpTest, CloneIsDeepCopy) {
  Rng rng(11);
  Mlp net = Mlp::MakeEmbeddingNet(4, 8, 3, &rng);
  Matrix input = RandomMatrix(2, 4, &rng);
  Mlp copy = net.Clone();
  Matrix before = copy.Infer(input);
  // Mutate the original's weights; the clone must not change.
  for (Parameter* p : net.Params()) p->value.Fill(0.0f);
  Matrix after = copy.Infer(input);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(MlpTest, ParamsEnumeratesLinearLayers) {
  Rng rng(12);
  Mlp net = Mlp::MakeEmbeddingNet(4, 8, 3, &rng);
  // Two Linear layers x (weight, bias).
  EXPECT_EQ(net.Params().size(), 4u);
  Mlp proxy = Mlp::MakeProxyNet(4, 8, &rng);
  EXPECT_EQ(proxy.Params().size(), 4u);
}

TEST(MlpTest, EndToEndGradientCheck) {
  Rng rng(13);
  Mlp net = Mlp::MakeEmbeddingNet(3, 6, 2, &rng);
  Matrix input = RandomMatrix(4, 3, &rng);
  Matrix probe = RandomMatrix(4, 2, &rng);

  net.ZeroGrad();
  net.Forward(input);
  net.Backward(probe);

  auto loss_at = [&]() {
    Matrix out = net.Infer(input);
    float loss = 0.0f;
    for (size_t j = 0; j < out.size(); ++j) loss += out.data()[j] * probe.data()[j];
    return loss;
  };
  const float eps = 1e-3f;
  for (Parameter* p : net.Params()) {
    for (size_t i = 0; i < p->value.size(); i += 7) {  // spot-check
      float& w = p->value.data()[i];
      const float orig = w;
      w = orig + eps;
      const float hi = loss_at();
      w = orig - eps;
      const float lo = loss_at();
      w = orig;
      EXPECT_NEAR(p->grad.data()[i], (hi - lo) / (2 * eps), 3e-2f);
    }
  }
}

// ---------- Optimizers ----------

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // Minimize ||W - target||^2 over a 1x4 parameter.
  Parameter p(1, 4);
  p.value.Fill(5.0f);
  const float target[] = {1.0f, -2.0f, 0.5f, 3.0f};
  Adam::Options options;
  options.learning_rate = 0.05f;
  Adam adam({&p}, options);
  for (int step = 0; step < 500; ++step) {
    p.ZeroGrad();
    for (size_t i = 0; i < 4; ++i) {
      p.grad.data()[i] = 2.0f * (p.value.data()[i] - target[i]);
    }
    adam.Step();
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(p.value.data()[i], target[i], 0.05f);
  }
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  Parameter p(1, 2);
  p.value.Fill(4.0f);
  Sgd sgd({&p}, 0.1f, 0.5f);
  for (int step = 0; step < 200; ++step) {
    p.ZeroGrad();
    for (size_t i = 0; i < 2; ++i) p.grad.data()[i] = 2.0f * p.value.data()[i];
    sgd.Step();
  }
  EXPECT_NEAR(p.value.data()[0], 0.0f, 1e-3f);
  EXPECT_NEAR(p.value.data()[1], 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamWeightDecayShrinksWeights) {
  Parameter p(1, 1);
  p.value.data()[0] = 1.0f;
  Adam::Options options;
  options.learning_rate = 0.01f;
  options.weight_decay = 0.1f;
  Adam adam({&p}, options);
  for (int step = 0; step < 300; ++step) {
    p.ZeroGrad();  // zero task gradient: only decay acts
    adam.Step();
  }
  EXPECT_LT(std::abs(p.value.data()[0]), 0.5f);
}

// ---------- Triplet loss ----------

TEST(TripletTest, ZeroWhenNegativeFar) {
  Matrix a(1, 2), p(1, 2), n(1, 2);
  a.At(0, 0) = 0.0f;
  p.At(0, 0) = 0.1f;   // d(a, p) = 0.1
  n.At(0, 0) = 10.0f;  // d(a, n) = 10
  TripletLossResult r = TripletLoss(a, p, n, 0.5f);
  EXPECT_EQ(r.loss, 0.0);
  EXPECT_EQ(r.active_fraction, 0.0);
  for (size_t i = 0; i < r.grad_anchor.size(); ++i) {
    EXPECT_EQ(r.grad_anchor.data()[i], 0.0f);
  }
}

TEST(TripletTest, HingeValueMatchesDefinition) {
  Matrix a(1, 1), p(1, 1), n(1, 1);
  a.At(0, 0) = 0.0f;
  p.At(0, 0) = 2.0f;  // d(a,p) = 2
  n.At(0, 0) = 1.0f;  // d(a,n) = 1
  const float margin = 0.5f;
  TripletLossResult r = TripletLoss(a, p, n, margin);
  EXPECT_NEAR(r.loss, margin + 2.0 - 1.0, 1e-6);
  EXPECT_EQ(r.active_fraction, 1.0);
}

TEST(TripletTest, GradientsMatchNumeric) {
  Rng rng(14);
  const size_t batch = 3, dim = 4;
  Matrix a = RandomMatrix(batch, dim, &rng);
  Matrix p = RandomMatrix(batch, dim, &rng);
  Matrix n = RandomMatrix(batch, dim, &rng);
  const float margin = 1.0f;
  TripletLossResult r = TripletLoss(a, p, n, margin);

  const float eps = 1e-3f;
  auto check = [&](Matrix* block, const Matrix& analytic) {
    for (size_t i = 0; i < block->size(); ++i) {
      const float orig = block->data()[i];
      block->data()[i] = orig + eps;
      const double hi = TripletLossValue(a, p, n, margin);
      block->data()[i] = orig - eps;
      const double lo = TripletLossValue(a, p, n, margin);
      block->data()[i] = orig;
      const double numeric = (hi - lo) / (2.0 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric, 5e-3)
          << "triplet grad mismatch at " << i;
    }
  };
  check(&a, r.grad_anchor);
  check(&p, r.grad_positive);
  check(&n, r.grad_negative);
}

TEST(TripletTest, EmptyBatchIsZero) {
  Matrix empty(0, 4);
  TripletLossResult r = TripletLoss(empty, empty, empty, 0.5f);
  EXPECT_EQ(r.loss, 0.0);
  EXPECT_EQ(r.grad_anchor.rows(), 0u);
}

// ---------- MLP serialization ----------

TEST(MlpSerializeTest, RoundTripPreservesOutputs) {
  Rng rng(50);
  Mlp net = Mlp::MakeEmbeddingNet(6, 12, 4, &rng);
  Matrix input = RandomMatrix(5, 6, &rng);
  const Matrix before = net.Infer(input);
  Result<Mlp> loaded = DeserializeMlp(SerializeMlp(net).value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Matrix after = loaded->Infer(input);
  ASSERT_EQ(before.rows(), after.rows());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(MlpSerializeTest, RoundTripProxyNet) {
  Rng rng(51);
  Mlp net = Mlp::MakeProxyNet(8, 16, &rng);
  Matrix input = RandomMatrix(3, 8, &rng);
  Result<Mlp> loaded = DeserializeMlp(SerializeMlp(net).value());
  ASSERT_TRUE(loaded.ok());
  const Matrix before = net.Infer(input);
  const Matrix after = loaded->Infer(input);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(MlpSerializeTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(DeserializeMlp("junk").ok());
  Rng rng(52);
  Mlp net = Mlp::MakeEmbeddingNet(4, 8, 2, &rng);
  std::string blob = SerializeMlp(net).value();
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(DeserializeMlp(blob).ok());
}

TEST(MlpSerializeTest, RejectsEmptyAndMisChainedLinearLayers) {
  // Checksummed blobs whose Linear shapes are well framed but unusable: a
  // layer with no inputs, and a second layer whose input width does not
  // match the first one's output. Both must fail to decode, not abort.
  auto blob = [](const std::vector<std::pair<size_t, size_t>>& shapes) {
    std::string out;
    PutPod(&out, uint32_t{0x4D4C5054});  // "MLPT"
    PutPod(&out, static_cast<uint32_t>(shapes.size()));
    for (const auto& [in, out_dim] : shapes) {
      PutPod(&out, uint8_t{0});  // Linear
      PutMatrix(&out, Matrix(in, out_dim));
      PutMatrix(&out, Matrix(1, out_dim));
    }
    AppendChecksumFooter(&out);
    return out;
  };
  EXPECT_TRUE(DeserializeMlp(blob({{3, 4}, {4, 2}})).ok());
  EXPECT_FALSE(DeserializeMlp(blob({{0, 4}})).ok());
  EXPECT_FALSE(DeserializeMlp(blob({{3, 4}, {5, 2}})).ok());
}

// ---------- Random projection ----------

TEST(RandomProjectionTest, DeterministicInSeed) {
  Rng rng(15);
  Matrix input = RandomMatrix(4, 6, &rng);
  RandomProjection a(6, 8, 42), b(6, 8, 42), c(6, 8, 43);
  Matrix oa = a.Apply(input), ob = b.Apply(input), oc = c.Apply(input);
  for (size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa.data()[i], ob.data()[i]);
  }
  // Different seed gives a different map.
  bool any_diff = false;
  for (size_t i = 0; i < oa.size(); ++i) {
    any_diff |= (oa.data()[i] != oc.data()[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomProjectionTest, OutputBoundedByTanh) {
  Rng rng(16);
  Matrix input = RandomMatrix(10, 5, &rng, 10.0f);
  RandomProjection proj(5, 7, 1);
  Matrix out = proj.Apply(input);
  EXPECT_EQ(out.cols(), 7u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out.data()[i], -1.0f);
    EXPECT_LE(out.data()[i], 1.0f);
  }
}

TEST(RandomProjectionTest, PreservesCoarseGeometry) {
  // Nearby inputs should map to nearby outputs more often than far inputs.
  Rng rng(17);
  RandomProjection proj(8, 16, 5);
  Matrix base = RandomMatrix(1, 8, &rng);
  Matrix near = base;
  for (size_t i = 0; i < near.size(); ++i) near.data()[i] += 0.01f;
  Matrix far = RandomMatrix(1, 8, &rng, 3.0f);
  Matrix ob = proj.Apply(base), on = proj.Apply(near), of = proj.Apply(far);
  EXPECT_LT(Distance(ob, 0, on, 0), Distance(ob, 0, of, 0));
}

}  // namespace
}  // namespace tasti::nn
