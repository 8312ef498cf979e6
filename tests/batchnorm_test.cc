// nn::BatchNorm1d's fused node against the composite it replaced, to the
// bit. The reference below is that composite, spelled with public ops
// exactly as BatchNorm1d::Forward spelled it: Mean, Sub, Square, Add, Sqrt,
// Div, Mul, Add, up to 12 autograd nodes. Outputs, running statistics and
// the x, gamma and beta gradients are compared by memcmp (NaN payloads
// aside, see ExpectSameBits), over train and eval mode, grad on and off,
// partial requires-grad, shapes from empty to 32 x 64, NaN / inf / signed
// zero / denormal inputs and upstream gradients, two forwards before one
// Backward, and an input with a second consumer.
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
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

}  // namespace
}  // namespace edsr
