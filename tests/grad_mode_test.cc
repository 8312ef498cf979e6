// Tests for the GradMode layer: NoGradGuard semantics, graph-free MakeOp,
// storage aliasing, and the autograd-node counter.
#include "src/tensor/grad_mode.h"

#include <gtest/gtest.h>

#include "src/tensor/ops.h"

namespace edsr {
namespace {

using tensor::AutogradNodesCreated;
using tensor::EnableGradGuard;
using tensor::GradMode;
using tensor::NoGradGuard;
using tensor::ResetAutogradNodeCount;
using tensor::Tensor;

TEST(GradMode, EnabledByDefaultAndGuardRestores) {
  EXPECT_TRUE(GradMode::IsEnabled());
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradMode::IsEnabled());
    {
      NoGradGuard nested;
      EXPECT_FALSE(GradMode::IsEnabled());
    }
    EXPECT_FALSE(GradMode::IsEnabled());  // nested exit keeps outer state
    {
      EnableGradGuard force_on;
      EXPECT_TRUE(GradMode::IsEnabled());
    }
    EXPECT_FALSE(GradMode::IsEnabled());
  }
  EXPECT_TRUE(GradMode::IsEnabled());
}

TEST(GradMode, OpWithNoGradParentsBuildsNoGraph) {
  // Satellite regression: parents that don't require grad must yield an
  // output with no backward_fn, no parent edges, and requires_grad=false —
  // even with grad mode on.
  Tensor a = Tensor::FromVector({1, 2, 3}, {3}, /*requires_grad=*/false);
  Tensor b = Tensor::FromVector({4, 5, 6}, {3}, /*requires_grad=*/false);
  Tensor c = a * b + a;
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(c.impl()->backward_fn));
}

TEST(GradMode, NoGradGuardSuppressesGraphForGradParents) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3}, /*requires_grad=*/true);
  NoGradGuard guard;
  Tensor c = tensor::Square(a);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(c.impl()->backward_fn));
  EXPECT_TRUE(c.impl()->grad.empty());
}

TEST(GradMode, GradFlowsNormallyAfterGuardExits) {
  Tensor a = Tensor::FromVector({2, 3}, {2}, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    tensor::Square(a);  // graph-free throwaway forward
  }
  Tensor loss = tensor::SumAll(tensor::Square(a));
  EXPECT_TRUE(loss.requires_grad());
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 6.0f);
}

TEST(GradMode, NodeCounterTracksGraphedOpsOnly) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, /*requires_grad=*/true);
  ResetAutogradNodeCount();
  EXPECT_EQ(AutogradNodesCreated(), 0);
  Tensor b = tensor::Square(a);   // graphed
  Tensor c = b + a;               // graphed
  EXPECT_EQ(AutogradNodesCreated(), 2);
  {
    NoGradGuard guard;
    tensor::Square(a);
    tensor::SumAll(c);
  }
  EXPECT_EQ(AutogradNodesCreated(), 2);  // guard suppressed both
  Tensor no_grad_leaf = Tensor::FromVector({1, 2}, {2});
  tensor::Square(no_grad_leaf);
  EXPECT_EQ(AutogradNodesCreated(), 2);  // no-grad parents don't count
}

TEST(Storage, DetachSeesNoGraph) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, /*requires_grad=*/true);
  Tensor b = tensor::Square(a);
  Tensor d = b.Detach();
  EXPECT_EQ(d.storage().get(), b.storage().get());  // zero-copy alias
  EXPECT_TRUE(d.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(d.impl()->backward_fn));
  // Using the detached value as a constant blocks grad flow into `a` from
  // that branch.
  Tensor loss = tensor::SumAll(a * d);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);  // d[0] == 1, no chain through Square
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
}

}  // namespace
}  // namespace edsr
