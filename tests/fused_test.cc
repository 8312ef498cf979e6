// The fused autograd nodes against the composites they replaced, to the
// bit: nn::BatchNorm1d's node (BatchNormFused.*), the one node per nn::Mlp
// layer, Linear -> BatchNorm1d -> ReLU (FusedLayer.*), and the one node of
// ssl::NegativeCosine (FusedCosine.*). Each reference is the composite
// spelled with public ops exactly as the code spelled it before: for
// BatchNorm1d, Mean, Sub, Square, Add, Sqrt, Div, Mul, Add (up to 12
// nodes); for a layer, MatMul, Add, that BatchNorm and Relu; for the
// cosine, MeanAll(CosineSimilarityRows(a, b)) * -1. Outputs, running
// statistics and every gradient are compared by memcmp (NaN payloads aside,
// see ExpectSameBits), over train and eval mode, grad on and off, partial
// requires-grad, NaN / inf / signed zero / denormal inputs and upstream
// gradients, two forwards before one Backward, and an input with a second
// consumer.
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/networks.h"
#include "src/ssl/losses.h"
#include "src/tensor/arena.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Tensor;
using tensor::TensorImpl;
using testing::ExpectSameBits;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
constexpr float kMomentum = 0.1f;
constexpr float kEps = 1e-5f;

// The composite BatchNorm1d::Forward, kept as the reference.
struct CompositeBatchNorm {
  Tensor gamma, beta, running_mean, running_var;

  Tensor Forward(const Tensor& input, bool training) {
    if (training) {
      Tensor mean = tensor::Mean(input, 0, /*keepdims=*/true);
      Tensor var =
          tensor::Mean(tensor::Square(input - mean), 0, /*keepdims=*/true);
      const std::vector<float>& m = mean.data();
      const std::vector<float>& v = var.data();
      std::vector<float>& rm = running_mean.mutable_data();
      std::vector<float>& rv = running_var.mutable_data();
      for (size_t i = 0; i < rm.size(); ++i) {
        rm[i] = (1.0f - kMomentum) * rm[i] + kMomentum * m[i];
        rv[i] = (1.0f - kMomentum) * rv[i] + kMomentum * v[i];
      }
      Tensor xhat = (input - mean) / tensor::Sqrt(var + kEps);
      return xhat * gamma + beta;
    }
    Tensor xhat = (input - running_mean) / tensor::Sqrt(running_var + kEps);
    return xhat * gamma + beta;
  }
};

// Values for an (n, f) tensor, uniform in [-2, 2) with specials laid out by
// column so that some columns stay finite: column j has kind (j + salt) % 4,
// 0 all finite, 1 signed zeros and denormals on every third row, 2 one NaN,
// 3 one +-inf. (A batch statistic over a column holding NaN or inf is NaN
// or inf, so per-element specials everywhere would leave nothing finite.)
std::vector<float> ColumnValues(int64_t n, int64_t f, int salt, bool specials,
                                util::Rng* rng) {
  const float small[] = {-0.0f, 0.0f, kDenorm, -kDenorm};
  std::vector<float> v(n * f);
  for (float& x : v) x = rng->Uniform(-2.0f, 2.0f);
  if (!specials || n == 0) return v;
  for (int64_t j = 0; j < f; ++j) {
    switch ((j + salt) % 4) {
      case 1:
        for (int64_t r = 0; r < n; r += 3) v[r * f + j] = small[(r + j) % 4];
        break;
      case 2:
        v[(j % n) * f + j] = kNan;
        break;
      case 3:
        v[(j % n) * f + j] = j % 2 == 0 ? kInf : -kInf;
        break;
      default:
        break;
    }
  }
  return v;
}

std::vector<float> Uniform(int64_t count, float lo, float hi,
                           util::Rng* rng) {
  std::vector<float> v(count);
  for (float& x : v) x = rng->Uniform(lo, hi);
  return v;
}

// A handle on the module's parameter or buffer `name`.
Tensor Named(const nn::Module& module, const std::string& name) {
  for (const nn::NamedTensor& entry : module.NamedState()) {
    if (entry.name == name) return entry.value;
  }
  ADD_FAILURE() << "no state named " << name;
  return Tensor();
}

// Tensor::Backward from a root whose gradient is given instead of 1: the
// same reverse post-order of an iterative DFS over the parents that require
// grad. Unlike a scalar loss, it can hand the node an upstream -0.
void SeededBackward(const Tensor& root, const std::vector<float>& upstream) {
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited = {root.impl()};
  std::vector<std::pair<TensorImpl*, size_t>> stack = {{root.impl(), 0}};
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      TensorImpl* parent = node->parents[next++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root.impl()->grad = upstream;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) {
      (*it)->EnsureGrad();
      (*it)->backward_fn(**it);
    }
  }
}

std::vector<float> GradOf(const Tensor& t) { return t.impl()->grad; }

// Which of x, gamma and beta require grad.
enum class Needs { kAll, kInputOnly, kAffineOnly };

struct Case {
  int64_t n;
  int64_t f;
  bool training;
  bool grad_mode;
  Needs needs;
  int salt;
  bool specials;

  std::string Name() const {
    return "n=" + std::to_string(n) + " f=" + std::to_string(f) +
           (training ? " train" : " eval") + (grad_mode ? " grad" : " nograd") +
           " needs=" + std::to_string(static_cast<int>(needs)) +
           " salt=" + std::to_string(salt) +
           (specials ? " specials" : " finite");
  }
};

// A fused module and a composite reference holding the same state, with
// the same starting gradient buffers on every leaf (nonzero, so the
// accumulation order onto existing gradients is compared too).
struct Pair {
  nn::BatchNorm1d fused;
  CompositeBatchNorm ref;

  Pair(int64_t f, bool training, bool affine_grad, util::Rng* rng)
      : fused(f, kMomentum, kEps) {
    fused.SetTraining(training);
    const std::vector<float> gamma = Uniform(f, 0.5f, 1.5f, rng);
    const std::vector<float> beta = Uniform(f, -0.5f, 0.5f, rng);
    const std::vector<float> mean = Uniform(f, -1.0f, 1.0f, rng);
    const std::vector<float> var = Uniform(f, 0.25f, 2.0f, rng);
    const std::vector<float> seed_g = Uniform(f, -1.0f, 1.0f, rng);
    const std::vector<float> seed_b = Uniform(f, -1.0f, 1.0f, rng);
    auto init = [&](Tensor t, const std::vector<float>& v,
                    const std::vector<float>* grad) {
      t.mutable_data() = v;
      if (grad != nullptr) {
        t.impl()->requires_grad = affine_grad;
        t.mutable_grad() = *grad;
      }
    };
    init(Named(fused, "gamma"), gamma, &seed_g);
    init(Named(fused, "beta"), beta, &seed_b);
    init(Named(fused, "running_mean"), mean, nullptr);
    init(Named(fused, "running_var"), var, nullptr);
    ref.gamma = Tensor::FromVector(gamma, {1, f}, affine_grad);
    ref.beta = Tensor::FromVector(beta, {1, f}, affine_grad);
    ref.running_mean = Tensor::FromVector(mean, {1, f});
    ref.running_var = Tensor::FromVector(var, {1, f});
    ref.gamma.mutable_grad() = seed_g;
    ref.beta.mutable_grad() = seed_b;
  }

  void ExpectSameState(const std::string& what) {
    ExpectSameBits(Named(fused, "running_mean").data(),
                   ref.running_mean.data(), what + " running_mean");
    ExpectSameBits(Named(fused, "running_var").data(),
                   ref.running_var.data(), what + " running_var");
    ExpectSameBits(GradOf(Named(fused, "gamma")), GradOf(ref.gamma),
                   what + " gamma grad");
    ExpectSameBits(GradOf(Named(fused, "beta")), GradOf(ref.beta),
                   what + " beta grad");
  }
};

void RunCase(const Case& c) {
  SCOPED_TRACE(c.Name());
  util::Rng rng(1000 + c.n * 131 + c.f * 7 + c.salt);
  const bool input_grad = c.needs != Needs::kAffineOnly;
  const bool affine_grad = c.needs != Needs::kInputOnly;
  Pair pair(c.f, c.training, affine_grad, &rng);
  const std::vector<float> xv = ColumnValues(c.n, c.f, c.salt, c.specials,
                                             &rng);
  const std::vector<float> upstream =
      ColumnValues(c.n, c.f, c.salt + 1, c.specials, &rng);
  const std::vector<float> seed_x = Uniform(c.n * c.f, -1.0f, 1.0f, &rng);
  Tensor x_fused = Tensor::FromVector(xv, {c.n, c.f}, input_grad);
  Tensor x_ref = Tensor::FromVector(xv, {c.n, c.f}, input_grad);
  if (input_grad) {
    x_fused.mutable_grad() = seed_x;
    x_ref.mutable_grad() = seed_x;
  }

  Tensor y_fused, y_ref;
  auto forward = [&] {
    y_fused = pair.fused.Forward(x_fused);
    y_ref = pair.ref.Forward(x_ref, c.training);
  };
  if (c.grad_mode) {
    forward();
  } else {
    tensor::NoGradGuard no_grad;
    forward();
  }
  ASSERT_EQ(y_fused.shape(), y_ref.shape());
  ExpectSameBits(y_fused.data(), y_ref.data(), "output");
  EXPECT_EQ(y_fused.requires_grad(), y_ref.requires_grad());
  if (y_fused.requires_grad()) {
    EXPECT_EQ(y_fused.impl()->parents.size(), 3u) << "one node";
    SeededBackward(y_fused, upstream);
    SeededBackward(y_ref, upstream);
  }
  pair.ExpectSameState("");
  ExpectSameBits(GradOf(x_fused), GradOf(x_ref), "x grad");
}

TEST(BatchNormFused, MatchesCompositeToTheBit) {
  for (bool training : {true, false}) {
    for (int64_t n : {0, 1, 2, 32}) {
      if (training && n == 0) continue;  // batch statistics need a row
      // 5 mixes the node's four-column blocks with single columns.
      for (int64_t f : {1, 3, 5, 64}) {
        for (bool grad_mode : {true, false}) {
          for (Needs needs :
               {Needs::kAll, Needs::kInputOnly, Needs::kAffineOnly}) {
            for (int salt = 0; salt < 4; ++salt) {
              for (bool specials : {false, true}) {
                RunCase({n, f, training, grad_mode, needs, salt, specials});
              }
            }
          }
        }
      }
    }
  }
}

TEST(BatchNormFused, NoGradBuildsNoGraph) {
  util::Rng rng(5);
  nn::BatchNorm1d bn(8);
  Tensor x = Tensor::Randn({4, 8}, &rng, 0.0f, 1.0f, /*requires_grad=*/true);
  for (bool training : {true, false}) {
    bn.SetTraining(training);
    tensor::NoGradGuard no_grad;
    const int64_t before = tensor::AutogradNodesCreated();
    Tensor y = bn.Forward(x);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(tensor::AutogradNodesCreated(), before);
  }
  bn.SetTraining(true);
  const int64_t before = tensor::AutogradNodesCreated();
  Tensor y = bn.Forward(x);
  EXPECT_EQ(tensor::AutogradNodesCreated(), before + 1);
}

// Two training forwards of one module (two views through one student)
// before a single Backward: the running statistics move twice and gamma and
// beta gather both nodes' terms in the graph's order.
TEST(BatchNormFused, TwoForwardsBeforeOneBackward) {
  for (int64_t f : {1, 3, 5, 64}) {
    SCOPED_TRACE("f=" + std::to_string(f));
    util::Rng rng(77 + f);
    Pair pair(f, /*training=*/true, /*affine_grad=*/true, &rng);
    const int64_t n = 16;
    const std::vector<float> a = ColumnValues(n, f, 1, true, &rng);
    const std::vector<float> b = ColumnValues(n, f, 2, false, &rng);
    const Tensor ga = Tensor::FromVector(ColumnValues(n, f, 3, true, &rng),
                                         {n, f});
    const Tensor gb = Tensor::FromVector(ColumnValues(n, f, 0, false, &rng),
                                         {n, f});
    Tensor a_fused = Tensor::FromVector(a, {n, f}, true);
    Tensor b_fused = Tensor::FromVector(b, {n, f}, true);
    Tensor a_ref = Tensor::FromVector(a, {n, f}, true);
    Tensor b_ref = Tensor::FromVector(b, {n, f}, true);
    Tensor ya = pair.fused.Forward(a_fused);
    Tensor yb = pair.fused.Forward(b_fused);
    Tensor ra = pair.ref.Forward(a_ref, true);
    Tensor rb = pair.ref.Forward(b_ref, true);
    ExpectSameBits(ya.data(), ra.data(), "first output");
    ExpectSameBits(yb.data(), rb.data(), "second output");
    (tensor::SumAll(ya * ga) + tensor::SumAll(yb * gb)).Backward();
    (tensor::SumAll(ra * ga) + tensor::SumAll(rb * gb)).Backward();
    pair.ExpectSameState("two forwards");
    ExpectSameBits(GradOf(a_fused), GradOf(a_ref), "first x grad");
    ExpectSameBits(GradOf(b_fused), GradOf(b_ref), "second x grad");
  }
}

// The normalized input also feeds a second consumer, on either side of the
// loss's sum, so x's gradient takes that consumer's term after the node's
// three terms or before them, as it did with the composite.
TEST(BatchNormFused, InputWithSecondConsumer) {
  for (bool training : {true, false}) {
    for (bool other_first : {true, false}) {
      SCOPED_TRACE(std::string(training ? "train" : "eval") +
                   (other_first ? " other first" : " bn first"));
      util::Rng rng(91 + training * 2 + other_first);
      const int64_t n = 8;
      const int64_t f = 5;
      Pair pair(f, training, /*affine_grad=*/true, &rng);
      const std::vector<float> base = ColumnValues(n, f, 1, true, &rng);
      const Tensor g = Tensor::FromVector(ColumnValues(n, f, 2, true, &rng),
                                          {n, f});
      const Tensor h = Tensor::FromVector(Uniform(n * f, -2.0f, 2.0f, &rng),
                                          {n, f});
      auto run = [&](const Tensor& leaf, auto&& bn) {
        // x is interior (leaf * 1.5), so its gradient buffer is the graph's.
        Tensor x = leaf * 1.5f;
        Tensor normalized = tensor::SumAll(bn(x) * g);
        Tensor other = tensor::SumAll(tensor::Square(x) * h);
        (other_first ? other + normalized : normalized + other).Backward();
        return x;
      };
      Tensor leaf_fused = Tensor::FromVector(base, {n, f}, true);
      Tensor leaf_ref = Tensor::FromVector(base, {n, f}, true);
      Tensor x_fused = run(
          leaf_fused, [&](const Tensor& x) { return pair.fused.Forward(x); });
      Tensor x_ref = run(leaf_ref, [&](const Tensor& x) {
        return pair.ref.Forward(x, training);
      });
      pair.ExpectSameState("second consumer");
      ExpectSameBits(GradOf(x_fused), GradOf(x_ref), "x grad");
      ExpectSameBits(GradOf(leaf_fused), GradOf(leaf_ref), "leaf grad");
    }
  }
}

// ---- FusedLayer: Linear -> BatchNorm1d -> ReLU as one node ----------------

enum class Norm { kNone, kTrain, kEval };

// The composite one nn::Mlp layer ran before it was one node.
struct CompositeLayer {
  Tensor weight, bias;
  CompositeBatchNorm bn;

  Tensor Forward(const Tensor& x, Norm norm, bool relu) {
    Tensor h = tensor::MatMul(x, weight) + bias;
    if (norm != Norm::kNone) h = bn.Forward(h, norm == Norm::kTrain);
    return relu ? tensor::Relu(h) : h;
  }
};

// Values for an (n, k) input with specials laid out by row, since a row
// reaches every output of its row through the product: row r has kind
// (r + salt) % 4, 0 all finite, 1 signed zeros and denormals on every third
// column, 2 one NaN, 3 one +-inf. `poison` false keeps kinds 2 and 3 finite
// (a batch statistic over a NaN or inf row leaves nothing finite).
std::vector<float> RowValues(int64_t n, int64_t k, int salt, bool specials,
                             bool poison, util::Rng* rng) {
  const float small[] = {-0.0f, 0.0f, kDenorm, -kDenorm};
  std::vector<float> v = Uniform(n * k, -2.0f, 2.0f, rng);
  if (!specials) return v;
  for (int64_t r = 0; r < n; ++r) {
    switch ((r + salt) % 4) {
      case 1:
        for (int64_t c = 0; c < k; c += 3) v[r * k + c] = small[(r + c) % 4];
        break;
      case 2:
        if (poison) v[r * k + r % k] = kNan;
        break;
      case 3:
        if (poison) v[r * k + r % k] = r % 2 == 0 ? kInf : -kInf;
        break;
      default:
        break;
    }
  }
  return v;
}

// Weights (k, f) with specials by output column: column j has kind
// (j + salt) % 4, 0 finite, 1 all signed zeros (the pre-activation column is
// the bias), 2 one NaN, 3 one +-inf.
std::vector<float> WeightValues(int64_t k, int64_t f, int salt, bool specials,
                                util::Rng* rng) {
  std::vector<float> v = Uniform(k * f, -0.5f, 0.5f, rng);
  if (!specials) return v;
  for (int64_t j = 0; j < f; ++j) {
    switch ((j + salt) % 4) {
      case 1:
        for (int64_t c = 0; c < k; ++c) v[c * f + j] = c % 2 ? -0.0f : 0.0f;
        break;
      case 2:
        v[(j % k) * f + j] = kNan;
        break;
      case 3:
        v[(j % k) * f + j] = j % 2 == 0 ? kInf : -kInf;
        break;
      default:
        break;
    }
  }
  return v;
}

// Sets a fused-side leaf and returns its composite twin: same values, same
// requires-grad, same starting gradient when given.
Tensor Twin(Tensor leaf, const std::vector<float>& values, bool requires_grad,
            const std::vector<float>* grad) {
  leaf.mutable_data() = values;
  Tensor twin = Tensor::FromVector(values, leaf.shape());
  if (grad != nullptr) {
    leaf.impl()->requires_grad = requires_grad;
    twin.impl()->requires_grad = requires_grad;
    leaf.mutable_grad() = *grad;
    twin.mutable_grad() = *grad;
  }
  return twin;
}

// One layer called as nn::Mlp::Forward calls it (nn::Linear's parameters;
// nn::BatchNorm1d::ForwardAfter when it normalizes) and its composite,
// holding the same values and the same nonzero starting gradients on every
// leaf.
struct LayerPair {
  util::Rng init{0};  // nn::Linear's initializer; overwritten below
  nn::Linear linear;
  nn::BatchNorm1d bn;
  CompositeLayer ref;
  Norm norm;
  bool relu;

  LayerPair(int64_t k, int64_t f, Norm norm, bool relu, bool param_grad,
            int salt, bool specials, util::Rng* rng)
      : linear(k, f, &init), bn(f, kMomentum, kEps), norm(norm), relu(relu) {
    bn.SetTraining(norm == Norm::kTrain);
    const std::vector<float> seeds[] = {
        Uniform(k * f, -1.0f, 1.0f, rng), Uniform(f, -1.0f, 1.0f, rng),
        Uniform(f, -1.0f, 1.0f, rng), Uniform(f, -1.0f, 1.0f, rng)};
    ref.weight = Twin(Named(linear, "weight"),
                      WeightValues(k, f, salt, specials, rng), param_grad,
                      &seeds[0]);
    ref.bias = Twin(Named(linear, "bias"), Uniform(f, -0.5f, 0.5f, rng),
                    param_grad, &seeds[1]);
    ref.bn.gamma = Twin(Named(bn, "gamma"), Uniform(f, 0.5f, 1.5f, rng),
                        param_grad, &seeds[2]);
    ref.bn.beta = Twin(Named(bn, "beta"), Uniform(f, -0.5f, 0.5f, rng),
                       param_grad, &seeds[3]);
    ref.bn.running_mean = Twin(Named(bn, "running_mean"),
                               Uniform(f, -1.0f, 1.0f, rng), false, nullptr);
    ref.bn.running_var = Twin(Named(bn, "running_var"),
                              Uniform(f, 0.25f, 2.0f, rng), false, nullptr);
  }

  Tensor Forward(const Tensor& x) {
    if (norm == Norm::kNone) {
      return tensor::FusedLayer(x, linear.weight(), linear.bias(), nullptr,
                                relu);
    }
    return bn.ForwardAfter(x, linear.weight(), linear.bias(), relu);
  }
  Tensor RefForward(const Tensor& x) { return ref.Forward(x, norm, relu); }

  void ExpectSameState(const std::string& what) {
    ExpectSameBits(GradOf(Named(linear, "weight")), GradOf(ref.weight),
                   what + " weight grad");
    ExpectSameBits(GradOf(Named(linear, "bias")), GradOf(ref.bias),
                   what + " bias grad");
    if (norm == Norm::kNone) return;
    ExpectSameBits(GradOf(Named(bn, "gamma")), GradOf(ref.bn.gamma),
                   what + " gamma grad");
    ExpectSameBits(GradOf(Named(bn, "beta")), GradOf(ref.bn.beta),
                   what + " beta grad");
    ExpectSameBits(Named(bn, "running_mean").data(),
                   ref.bn.running_mean.data(), what + " running_mean");
    ExpectSameBits(Named(bn, "running_var").data(), ref.bn.running_var.data(),
                   what + " running_var");
  }
};

struct LayerCase {
  int64_t n;
  int64_t k;
  int64_t f;
  Norm norm;
  bool relu;
  bool grad_mode;
  Needs needs;
  int salt;
  bool specials;

  std::string Name() const {
    const char* norms[] = {"none", "train", "eval"};
    return "n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " f=" + std::to_string(f) + " norm=" +
           norms[static_cast<int>(norm)] + (relu ? " relu" : "") +
           (grad_mode ? " grad" : " nograd") +
           " needs=" + std::to_string(static_cast<int>(needs)) +
           " salt=" + std::to_string(salt) +
           (specials ? " specials" : " finite");
  }
};

void RunLayerCase(const LayerCase& c) {
  SCOPED_TRACE(c.Name());
  util::Rng rng(2000 + c.n * 131 + c.k * 17 + c.f * 7 + c.salt);
  const bool input_grad = c.needs != Needs::kAffineOnly;
  LayerPair pair(c.k, c.f, c.norm, c.relu, c.needs != Needs::kInputOnly,
                 c.salt, c.specials, &rng);
  const std::vector<float> xv = RowValues(c.n, c.k, c.salt, c.specials,
                                          c.norm != Norm::kTrain, &rng);
  const std::vector<float> upstream =
      ColumnValues(c.n, c.f, c.salt + 1, c.specials, &rng);
  const std::vector<float> seed_x = Uniform(c.n * c.k, -1.0f, 1.0f, &rng);
  Tensor x_fused = Tensor::FromVector(xv, {c.n, c.k}, input_grad);
  Tensor x_ref = Tensor::FromVector(xv, {c.n, c.k}, input_grad);
  if (input_grad) {
    x_fused.mutable_grad() = seed_x;
    x_ref.mutable_grad() = seed_x;
  }

  Tensor y_fused, y_ref;
  auto forward = [&] {
    y_fused = pair.Forward(x_fused);
    y_ref = pair.RefForward(x_ref);
  };
  if (c.grad_mode) {
    forward();
  } else {
    tensor::NoGradGuard no_grad;
    forward();
  }
  ASSERT_EQ(y_fused.shape(), y_ref.shape());
  ExpectSameBits(y_fused.data(), y_ref.data(), "output");
  EXPECT_EQ(y_fused.requires_grad(), y_ref.requires_grad());
  if (y_fused.requires_grad()) {
    EXPECT_EQ(y_fused.impl()->parents.size(),
              c.norm == Norm::kNone ? 3u : 5u)
        << "one node";
    SeededBackward(y_fused, upstream);
    SeededBackward(y_ref, upstream);
  }
  pair.ExpectSameState("");
  ExpectSameBits(GradOf(x_fused), GradOf(x_ref), "x grad");
}

TEST(FusedLayer, MatchesCompositeToTheBit) {
  for (Norm norm : {Norm::kNone, Norm::kTrain, Norm::kEval}) {
    for (int64_t n : {0, 1, 2, 32}) {
      if (norm == Norm::kTrain && n == 0) continue;  // batch statistics
      for (int64_t k : {3, 64}) {
        // 5 mixes the node's four-column blocks with single columns.
        for (int64_t f : {1, 3, 5, 64}) {
          for (bool relu : {false, true}) {
            for (bool grad_mode : {true, false}) {
              for (Needs needs :
                   {Needs::kAll, Needs::kInputOnly, Needs::kAffineOnly}) {
                for (int salt = 0; salt < 4; ++salt) {
                  for (bool specials : {false, true}) {
                    RunLayerCase({n, k, f, norm, relu, grad_mode, needs, salt,
                                  specials});
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// Vectors taken from the arena pool so far on this thread.
int64_t PoolAcquisitions() {
  const tensor::arena::ArenaStats& stats = tensor::arena::Stats();
  return stats.pool_hits + stats.pool_misses;
}

// Under NoGradGuard a layer builds no node and takes only its output from
// the pool: nothing is saved for a backward. With a graph it is one node,
// and with batch normalization one more buffer holds what the backward
// reads.
TEST(FusedLayer, NoGradBuildsNoGraphAndSavesNothing) {
  for (Norm norm : {Norm::kNone, Norm::kTrain, Norm::kEval}) {
    for (bool relu : {false, true}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(norm)) +
                   (relu ? " relu" : ""));
      util::Rng rng(5);
      LayerPair pair(6, 8, norm, relu, /*param_grad=*/true, 0, false, &rng);
      Tensor x = Tensor::Randn({4, 6}, &rng, 0.0f, 1.0f,
                               /*requires_grad=*/true);
      {
        tensor::NoGradGuard no_grad;
        const int64_t nodes = tensor::AutogradNodesCreated();
        const int64_t vectors = PoolAcquisitions();
        Tensor y = pair.Forward(x);
        EXPECT_FALSE(y.requires_grad());
        EXPECT_TRUE(y.impl()->parents.empty());
        EXPECT_FALSE(y.impl()->backward_fn);
        EXPECT_EQ(tensor::AutogradNodesCreated(), nodes);
        EXPECT_EQ(PoolAcquisitions() - vectors, 1) << "the output only";
      }
      const int64_t nodes = tensor::AutogradNodesCreated();
      const int64_t vectors = PoolAcquisitions();
      Tensor y = pair.Forward(x);
      EXPECT_EQ(tensor::AutogradNodesCreated(), nodes + 1);
      EXPECT_EQ(PoolAcquisitions() - vectors, norm == Norm::kNone ? 1 : 2);
    }
  }
}

// An nn::Mlp of batch-normalized hidden layers and a plain last layer, as
// its composite: CompositeLayer per Linear, holding copies of the Mlp's
// values and starting gradients. The state names are the Mlp's own
// (body.layer0 Linear, body.layer1 BatchNorm1d, body.layer2 ReLU, ...).
struct CompositeMlp {
  std::vector<CompositeLayer> layers;

  CompositeMlp(const nn::Mlp& mlp, int64_t count, util::Rng* rng) {
    for (int64_t i = 0; i < count; ++i) {
      const std::string linear = "body.layer" + std::to_string(3 * i) + ".";
      const std::string bn = "body.layer" + std::to_string(3 * i + 1) + ".";
      auto twin = [&](const std::string& name, bool parameter) {
        Tensor leaf = Named(mlp, name);
        const std::vector<float> values = leaf.data();
        const std::vector<float> grad =
            Uniform(leaf.numel(), -1.0f, 1.0f, rng);
        return Twin(leaf, values, true, parameter ? &grad : nullptr);
      };
      CompositeLayer layer;
      layer.weight = twin(linear + "weight", true);
      layer.bias = twin(linear + "bias", true);
      if (i + 1 < count) {
        layer.bn.gamma = twin(bn + "gamma", true);
        layer.bn.beta = twin(bn + "beta", true);
        layer.bn.running_mean = twin(bn + "running_mean", false);
        layer.bn.running_var = twin(bn + "running_var", false);
      }
      layers.push_back(layer);
    }
  }

  Tensor Forward(const Tensor& x, bool training) {
    Tensor out = x;
    for (size_t i = 0; i < layers.size(); ++i) {
      const bool last = i + 1 == layers.size();
      const Norm norm =
          last ? Norm::kNone : (training ? Norm::kTrain : Norm::kEval);
      out = layers[i].Forward(out, norm, /*relu=*/!last);
    }
    return out;
  }

  void ExpectSameState(const nn::Mlp& mlp, const std::string& what) {
    for (size_t i = 0; i < layers.size(); ++i) {
      const std::string linear = "body.layer" + std::to_string(3 * i) + ".";
      const std::string bn = "body.layer" + std::to_string(3 * i + 1) + ".";
      const CompositeLayer& ref = layers[i];
      ExpectSameBits(GradOf(Named(mlp, linear + "weight")),
                     GradOf(ref.weight), what + " " + linear + "weight");
      ExpectSameBits(GradOf(Named(mlp, linear + "bias")), GradOf(ref.bias),
                     what + " " + linear + "bias");
      if (i + 1 == layers.size()) continue;
      ExpectSameBits(GradOf(Named(mlp, bn + "gamma")), GradOf(ref.bn.gamma),
                     what + " " + bn + "gamma");
      ExpectSameBits(GradOf(Named(mlp, bn + "beta")), GradOf(ref.bn.beta),
                     what + " " + bn + "beta");
      ExpectSameBits(Named(mlp, bn + "running_mean").data(),
                     ref.bn.running_mean.data(), what + " running_mean");
      ExpectSameBits(Named(mlp, bn + "running_var").data(),
                     ref.bn.running_var.data(), what + " running_var");
    }
  }
};

// The Mlp keeps the state names and their order, and so the checkpoint
// layout, of its Linear / BatchNorm1d / ReLU modules (the ReLU slots hold
// no state), and builds one node per layer.
TEST(FusedLayer, MlpKeepsItsStateNamesAndBuildsOneNodePerLayer) {
  util::Rng rng(3);
  nn::Mlp mlp({6, 5, 4, 3}, &rng);
  std::vector<std::string> names;
  for (const nn::NamedTensor& entry : mlp.NamedState()) {
    names.push_back(entry.name);
  }
  const std::vector<std::string> expected = {
      "body.layer0.weight",       "body.layer0.bias",
      "body.layer1.gamma",        "body.layer1.beta",
      "body.layer1.running_mean", "body.layer1.running_var",
      "body.layer3.weight",       "body.layer3.bias",
      "body.layer4.gamma",        "body.layer4.beta",
      "body.layer4.running_mean", "body.layer4.running_var",
      "body.layer6.weight",       "body.layer6.bias"};
  EXPECT_EQ(names, expected);
  Tensor x = Tensor::Randn({4, 6}, &rng);
  const int64_t before = tensor::AutogradNodesCreated();
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(tensor::AutogradNodesCreated(), before + 3);
}

// Two training forwards of one Mlp (two views through one student) before
// a single Backward: the running statistics move twice and every parameter
// gathers both forwards' terms in the graph's order.
TEST(FusedLayer, TwoForwardsBeforeOneBackward) {
  for (bool training : {true, false}) {
    SCOPED_TRACE(training ? "train" : "eval");
    util::Rng rng(77 + training);
    const int64_t n = 16;
    nn::Mlp mlp({12, 8, 8, 5}, &rng);
    mlp.SetTraining(training);
    CompositeMlp ref(mlp, 3, &rng);
    const std::vector<float> a = RowValues(n, 12, 1, true, !training, &rng);
    const std::vector<float> b = RowValues(n, 12, 2, false, true, &rng);
    const Tensor ga = Tensor::FromVector(ColumnValues(n, 5, 3, true, &rng),
                                         {n, 5});
    const Tensor gb = Tensor::FromVector(ColumnValues(n, 5, 0, false, &rng),
                                         {n, 5});
    Tensor a_fused = Tensor::FromVector(a, {n, 12}, true);
    Tensor b_fused = Tensor::FromVector(b, {n, 12}, true);
    Tensor a_ref = Tensor::FromVector(a, {n, 12}, true);
    Tensor b_ref = Tensor::FromVector(b, {n, 12}, true);
    Tensor ya = mlp.Forward(a_fused);
    Tensor yb = mlp.Forward(b_fused);
    Tensor ra = ref.Forward(a_ref, training);
    Tensor rb = ref.Forward(b_ref, training);
    ExpectSameBits(ya.data(), ra.data(), "first output");
    ExpectSameBits(yb.data(), rb.data(), "second output");
    (tensor::SumAll(ya * ga) + tensor::SumAll(yb * gb)).Backward();
    (tensor::SumAll(ra * ga) + tensor::SumAll(rb * gb)).Backward();
    ref.ExpectSameState(mlp, "two forwards");
    ExpectSameBits(GradOf(a_fused), GradOf(a_ref), "first x grad");
    ExpectSameBits(GradOf(b_fused), GradOf(b_ref), "second x grad");
  }
}

// The layer's input also feeds a second consumer, on either side of the
// loss's sum, so x's gradient takes that consumer's term after the layer's
// or before it, as it did with the composite.
TEST(FusedLayer, InputWithSecondConsumer) {
  for (Norm norm : {Norm::kNone, Norm::kTrain, Norm::kEval}) {
    for (bool other_first : {true, false}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(norm)) +
                   (other_first ? " other first" : " layer first"));
      util::Rng rng(91 + static_cast<int>(norm) * 2 + other_first);
      const int64_t n = 8;
      const int64_t k = 7;
      const int64_t f = 5;
      LayerPair pair(k, f, norm, /*relu=*/true, /*param_grad=*/true, 1, true,
                     &rng);
      const std::vector<float> base =
          RowValues(n, k, 1, true, norm != Norm::kTrain, &rng);
      const Tensor g = Tensor::FromVector(ColumnValues(n, f, 2, true, &rng),
                                          {n, f});
      const Tensor h = Tensor::FromVector(Uniform(n * k, -2.0f, 2.0f, &rng),
                                          {n, k});
      auto run = [&](const Tensor& leaf, auto&& layer) {
        // x is interior (leaf * 1.5), so its gradient buffer is the graph's.
        Tensor x = leaf * 1.5f;
        Tensor through = tensor::SumAll(layer(x) * g);
        Tensor other = tensor::SumAll(tensor::Square(x) * h);
        (other_first ? other + through : through + other).Backward();
        return x;
      };
      Tensor leaf_fused = Tensor::FromVector(base, {n, k}, true);
      Tensor leaf_ref = Tensor::FromVector(base, {n, k}, true);
      Tensor x_fused =
          run(leaf_fused, [&](const Tensor& x) { return pair.Forward(x); });
      Tensor x_ref =
          run(leaf_ref, [&](const Tensor& x) { return pair.RefForward(x); });
      pair.ExpectSameState("second consumer");
      ExpectSameBits(GradOf(x_fused), GradOf(x_ref), "x grad");
      ExpectSameBits(GradOf(leaf_fused), GradOf(leaf_ref), "leaf grad");
    }
  }
}

// ---- FusedCosine: ssl::NegativeCosine as one node --------------------------

// The composite ssl::NegativeCosine ran before it was one node.
Tensor CompositeNegativeCosine(const Tensor& a, const Tensor& b) {
  return tensor::MeanAll(tensor::CosineSimilarityRows(a, b)) * -1.0f;
}

TEST(FusedCosine, MatchesCompositeToTheBit) {
  // Upstream gradients of the loss, -0 and the non-finite ones included.
  const float upstreams[] = {1.0f, 0.5f, -0.0f, 0.0f, -3.0f, kInf, kNan};
  for (int64_t n : {1, 2, 5, 32}) {
    for (int64_t d : {1, 3, 5, 32}) {
      for (bool grad_mode : {true, false}) {
        for (int salt = 0; salt < 4; ++salt) {
          for (bool specials : {false, true}) {
            for (float upstream : upstreams) {
              SCOPED_TRACE("n=" + std::to_string(n) + " d=" +
                           std::to_string(d) + (grad_mode ? " grad" : "") +
                           " salt=" + std::to_string(salt) +
                           (specials ? " specials" : "") +
                           " upstream=" + std::to_string(upstream));
              util::Rng rng(3000 + n * 131 + d * 7 + salt);
              const std::vector<float> av =
                  RowValues(n, d, salt, specials, true, &rng);
              const Tensor b = Tensor::FromVector(
                  RowValues(n, d, salt + 1, specials, true, &rng), {n, d});
              const std::vector<float> seed = Uniform(n * d, -1.0f, 1.0f,
                                                      &rng);
              Tensor a_fused = Tensor::FromVector(av, {n, d}, true);
              Tensor a_ref = Tensor::FromVector(av, {n, d}, true);
              a_fused.mutable_grad() = seed;
              a_ref.mutable_grad() = seed;
              Tensor y_fused, y_ref;
              auto forward = [&] {
                const int64_t nodes = tensor::AutogradNodesCreated();
                y_fused = ssl::NegativeCosine(a_fused, b);
                EXPECT_EQ(tensor::AutogradNodesCreated(),
                          nodes + (grad_mode ? 1 : 0));
                y_ref = CompositeNegativeCosine(a_ref, b);
              };
              if (grad_mode) {
                forward();
              } else {
                tensor::NoGradGuard no_grad;
                forward();
              }
              ExpectSameBits(y_fused.data(), y_ref.data(), "value");
              ASSERT_EQ(y_fused.requires_grad(), grad_mode);
              ASSERT_EQ(y_ref.requires_grad(), grad_mode);
              if (!grad_mode) continue;
              EXPECT_EQ(y_fused.impl()->parents.size(), 2u) << "one node";
              SeededBackward(y_fused, {upstream});
              SeededBackward(y_ref, {upstream});
              ExpectSameBits(GradOf(a_fused), GradOf(a_ref), "a grad");
            }
          }
        }
      }
    }
  }
}

// SimSiam's two terms: two forwards through one predictor (shared weights)
// and two cosines whose inputs also feed the other term's detached target,
// before one Backward. The representations are interior (leaf * 1.5), so
// their gradients also take the consumers outside the loss.
TEST(FusedCosine, SimSiamTwoTermsThroughOnePredictor) {
  for (bool other_first : {true, false}) {
    SCOPED_TRACE(other_first ? "other first" : "loss first");
    util::Rng rng(101 + other_first);
    const int64_t n = 12;
    const int64_t d = 8;
    ssl::SimSiamLoss loss(d, d, &rng);
    CompositeMlp predictor(*loss.predictor(), 2, &rng);
    const std::vector<float> v1 = RowValues(n, d, 1, true, false, &rng);
    const std::vector<float> v2 = RowValues(n, d, 2, false, false, &rng);
    const Tensor h = Tensor::FromVector(Uniform(n * d, -2.0f, 2.0f, &rng),
                                        {n, d});
    auto run = [&](const Tensor& l1, const Tensor& l2, auto&& simsiam) {
      Tensor z1 = l1 * 1.5f;
      Tensor z2 = l2 * 1.5f;
      Tensor term = simsiam(z1, z2);
      Tensor other = tensor::SumAll(tensor::Square(z1) * h) +
                     tensor::SumAll(z2 * h);
      (other_first ? other + term : term + other).Backward();
      return term;
    };
    Tensor l1_fused = Tensor::FromVector(v1, {n, d}, true);
    Tensor l2_fused = Tensor::FromVector(v2, {n, d}, true);
    Tensor l1_ref = Tensor::FromVector(v1, {n, d}, true);
    Tensor l2_ref = Tensor::FromVector(v2, {n, d}, true);
    Tensor fused = run(l1_fused, l2_fused,
                       [&](const Tensor& z1, const Tensor& z2) {
                         return loss.Loss(z1, z2);
                       });
    Tensor ref = run(l1_ref, l2_ref, [&](const Tensor& z1, const Tensor& z2) {
      Tensor p1 = predictor.Forward(z1, /*training=*/true);
      Tensor p2 = predictor.Forward(z2, /*training=*/true);
      return (CompositeNegativeCosine(p1, z2.Detach()) +
              CompositeNegativeCosine(p2, z1.Detach())) *
             0.5f;
    });
    ExpectSameBits(fused.data(), ref.data(), "loss");
    predictor.ExpectSameState(*loss.predictor(), "predictor");
    ExpectSameBits(GradOf(l1_fused), GradOf(l1_ref), "z1 leaf grad");
    ExpectSameBits(GradOf(l2_fused), GradOf(l2_ref), "z2 leaf grad");
  }
}

TEST(FusedCosine, TargetThatNeedsAGradientDies) {
  util::Rng rng(7);
  Tensor a = Tensor::Randn({4, 3}, &rng, 0.0f, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({4, 3}, &rng, 0.0f, 1.0f, /*requires_grad=*/true);
  EXPECT_DEATH(ssl::NegativeCosine(a, b), "Detach");
  tensor::NoGradGuard no_grad;
  EXPECT_EQ(ssl::NegativeCosine(a, b).numel(), 1) << "no gradient needed";
}

}  // namespace
}  // namespace edsr
