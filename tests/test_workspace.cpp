// InferenceWorkspace: arena-backed eval-mode inference must be
// bit-identical to the allocating forward() path, keep hook semantics
// (hooks mutate the slot in place and downstream layers consume the
// mutated values), and replan transparently when the root model or the
// input shape changes (DESIGN.md §10).
#include "nn/workspace.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "models/classification.h"
#include "nn/layers.h"
#include "test_common.h"
#include "util/error.h"
#include "util/rng.h"

namespace alfi::nn {
namespace {

Tensor probe_image(std::size_t batch, std::uint64_t seed = 17) {
  const data::SyntheticShapesClassification dataset(
      {.size = batch, .num_classes = 10, .seed = seed});
  Tensor input(Shape{batch, 3, 32, 32});
  for (std::size_t i = 0; i < batch; ++i) {
    const Tensor image = dataset.get(i).image;
    std::copy(image.data().begin(), image.data().end(),
              input.data().begin() + static_cast<std::ptrdiff_t>(i * image.numel()));
  }
  return input;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(da[i], db[i]) << "element " << i;
  }
}

/// A model touching every stock layer that has an `_into` kernel.
std::shared_ptr<Sequential> make_zoo_model() {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Conv2d>(3, 6, 3, 1, 1), "conv1");
  net->append(std::make_shared<BatchNorm2d>(6), "bn1");
  net->append(std::make_shared<LeakyReLU>(0.1f), "lrelu");
  net->append(std::make_shared<MaxPool2d>(2), "pool1");
  auto res_main = std::make_shared<Sequential>();
  res_main->append(std::make_shared<Conv2d>(6, 6, 3, 1, 1), "conv");
  res_main->append(std::make_shared<ReLU>(), "relu");
  net->append(std::make_shared<Residual>(res_main), "res");
  net->append(std::make_shared<AvgPool2d>(2), "pool2");
  net->append(std::make_shared<Conv2d>(6, 8, 3, 1, 1), "conv2");
  net->append(std::make_shared<Sigmoid>(), "sig");
  net->append(std::make_shared<GlobalAvgPool2d>(), "gap");
  net->append(std::make_shared<Flatten>(), "flat");
  net->append(std::make_shared<Linear>(8, 16), "fc1");
  net->append(std::make_shared<Tanh>(), "tanh");
  net->append(std::make_shared<Linear>(16, 10), "fc2");
  net->append(std::make_shared<Softmax>(), "softmax");
  Rng rng(7);
  kaiming_init(*net, rng);
  return net;
}

TEST(InferenceWorkspace, MatchesAllocatingForwardBitExactly) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(2);

  InferenceWorkspace ws;
  const Tensor& ws_out = ws.run(*net, input);
  const Tensor alloc_out = net->forward(input);
  expect_bitwise_equal(ws_out, alloc_out);

  // Steady state (no replanning) stays identical too.
  expect_bitwise_equal(ws.run(*net, input), alloc_out);
}

TEST(InferenceWorkspace, EveryStockLayerKindMatches) {
  auto net = make_zoo_model();
  const Tensor input = probe_image(2, 29);
  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*net, input), net->forward(input));
}

TEST(InferenceWorkspace, Conv3dMatches) {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Conv3d>(2, 3, 3, 1, 1), "conv3d");
  net->append(std::make_shared<ReLU>(), "relu");
  Rng rng(3);
  kaiming_init(*net, rng);
  Tensor input(Shape{1, 2, 4, 6, 6});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input.flat(i) = static_cast<float>(rng.normal());
  }
  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*net, input), net->forward(input));
}

TEST(InferenceWorkspace, HooksMutateTheSlotInPlace) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  // Hook on an interior layer: the mutation must propagate through the
  // remaining layers exactly as it does on the allocating path.
  Module* target = net->children()[0].second.get();
  const HookHandle handle = target->register_forward_hook(
      [](Module&, const Tensor&, Tensor& output) {
        for (float& v : output.data()) v = -v;
      });

  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*net, input), net->forward(input));
  target->remove_forward_hook(handle);
}

TEST(InferenceWorkspace, HookSeesTheSameSlotStorageEveryRun) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  Module* target = net->children()[0].second.get();
  std::vector<const float*> storage;
  const HookHandle handle = target->register_forward_hook(
      [&storage](Module&, const Tensor&, Tensor& output) {
        storage.push_back(output.raw());
      });

  InferenceWorkspace ws;
  ws.run(*net, input);
  ws.run(*net, input);
  ws.run(*net, input);
  target->remove_forward_hook(handle);
  ASSERT_EQ(storage.size(), 3u);
  EXPECT_EQ(storage[0], storage[1]);  // planned once, reused after
  EXPECT_EQ(storage[1], storage[2]);
}

TEST(InferenceWorkspace, ReplansOnInputShapeChange) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor batch1 = probe_image(1);
  const Tensor batch3 = probe_image(3);

  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*net, batch1), net->forward(batch1));
  expect_bitwise_equal(ws.run(*net, batch3), net->forward(batch3));
  expect_bitwise_equal(ws.run(*net, batch1), net->forward(batch1));
}

TEST(InferenceWorkspace, ReplansOnRootChange) {
  auto lenet = models::make_lenet();
  auto alexnet = models::make_mini_alexnet();
  Rng rng(5);
  kaiming_init(*lenet, rng);
  kaiming_init(*alexnet, rng);
  const Tensor input = probe_image(2);

  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*lenet, input), lenet->forward(input));
  expect_bitwise_equal(ws.run(*alexnet, input), alexnet->forward(input));
}

TEST(InferenceWorkspace, ArenaFootprintStableInSteadyState) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(2);

  InferenceWorkspace ws;
  EXPECT_FALSE(ws.planned());
  ws.run(*net, input);
  EXPECT_TRUE(ws.planned());
  const std::size_t high_water = ws.high_water_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 5; ++i) ws.run(*net, input);
  EXPECT_EQ(ws.high_water_bytes(), high_water);

  ws.invalidate();
  EXPECT_FALSE(ws.planned());
}

TEST(InferenceWorkspace, RefusesTrainingMode) {
  auto net = models::make_lenet();
  Rng rng(1);
  kaiming_init(*net, rng);
  net->set_training(true);
  InferenceWorkspace ws;
  EXPECT_THROW(ws.run(*net, probe_image(1)), Error);
  net->set_training(false);
  EXPECT_NO_THROW(ws.run(*net, probe_image(1)));
}

// A layer with no compute_ws override rides the allocating fallback:
// same numbers, and its hook still sees stable arena-backed storage.
class DoubleLayer : public Module {
 public:
  std::string type() const override { return "DoubleLayer"; }

 protected:
  Tensor compute(const Tensor& input) override {
    Tensor out = input;
    for (float& v : out.data()) v *= 2.0f;
    return out;
  }
};

TEST(InferenceWorkspace, CustomLayerFallsBackToAllocatingCompute) {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Conv2d>(3, 4, 3, 1, 1), "conv");
  net->append(std::make_shared<DoubleLayer>(), "custom");
  net->append(std::make_shared<ReLU>(), "relu");
  Rng rng(11);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  Module* custom = net->children()[1].second.get();
  std::vector<const float*> storage;
  const HookHandle handle = custom->register_forward_hook(
      [&storage](Module&, const Tensor&, Tensor& output) {
        storage.push_back(output.raw());
      });

  InferenceWorkspace ws;
  expect_bitwise_equal(ws.run(*net, input), net->forward(input));
  storage.clear();
  ws.run(*net, input);
  ws.run(*net, input);
  custom->remove_forward_hook(handle);
  ASSERT_EQ(storage.size(), 2u);
  EXPECT_EQ(storage[0], storage[1]);  // fallback parks results in one slot
}

// ---- differential inference (prefix reuse, DESIGN.md §11) ---------------

/// Observer that vetoes replay at one chosen leaf and records every
/// replay callback, in order.
class ProbeObserver : public PrefixObserver {
 public:
  bool can_replay(const Module& m, const Tensor&) override {
    return &m != veto_at;
  }
  void on_replay(const Module& m, const Tensor&) override {
    replayed.push_back(&m);
  }

  const Module* veto_at = nullptr;
  std::vector<const Module*> replayed;
};

class DifferentialPrefix : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = models::make_mini_alexnet();
    Rng rng(17);
    kaiming_init(*net_, rng);
    input_ = probe_image(2);
    full_ = net_->forward(input_);
  }

  std::shared_ptr<Sequential> net_;
  Tensor input_;
  Tensor full_;
};

TEST_F(DifferentialPrefix, ReplayedPrefixIsBitIdenticalToFullRecompute) {
  InferenceWorkspace base;
  base.run(*net_, input_);
  ASSERT_GT(base.leaf_count(), 3u);

  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  for (std::size_t boundary = 0; boundary <= base.leaf_count(); ++boundary) {
    expect_bitwise_equal(net_->forward_from(boundary, input_, diff), full_);
    EXPECT_EQ(diff.prefix_reused_last_run(), boundary) << boundary;
  }
}

TEST_F(DifferentialPrefix, BoundaryIsConsumedByOneRun) {
  InferenceWorkspace base;
  base.run(*net_, input_);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  net_->forward_from(3, input_, diff);
  EXPECT_EQ(diff.prefix_reused_last_run(), 3u);
  // A plain run() right after must fully recompute: the boundary is
  // one-shot, not sticky.
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, SkipAllLeavesReturnsTheBaselineSlot) {
  InferenceWorkspace base;
  const Tensor& base_out = base.run(*net_, input_);
  InferenceWorkspace diff;
  diff.run(*net_, input_);  // plan first so exec indices exist
  diff.set_prefix_baseline(&base);
  const Tensor& out =
      net_->forward_from(InferenceWorkspace::kSkipAllLeaves, input_, diff);
  EXPECT_EQ(diff.prefix_reused_last_run(), diff.leaf_count());
  EXPECT_EQ(out.raw(), base_out.raw());  // replayed by reference, no copy
  expect_bitwise_equal(out, full_);
}

TEST_F(DifferentialPrefix, SelfBaselineReplaysOwnPreviousPass) {
  // The object-detection harness uses one workspace as its own
  // baseline: a differential run only overwrites suffix slots, so the
  // prefix slots still hold the previous full pass's values.
  InferenceWorkspace ws;
  ws.run(*net_, input_);
  ws.set_prefix_baseline(&ws);
  expect_bitwise_equal(net_->forward_from(4, input_, ws), full_);
  EXPECT_EQ(ws.prefix_reused_last_run(), 4u);
  expect_bitwise_equal(net_->forward_from(4, input_, ws), full_);
  EXPECT_EQ(ws.prefix_reused_last_run(), 4u);
}

TEST_F(DifferentialPrefix, UnplannedBaselineDegradesToFullRecompute) {
  InferenceWorkspace never_ran;
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&never_ran);
  expect_bitwise_equal(net_->forward_from(3, input_, diff), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, BaselineShapeMismatchDegradesToFullRecompute) {
  InferenceWorkspace base;
  base.run(*net_, probe_image(1));  // planned for a different batch size
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  expect_bitwise_equal(net_->forward_from(3, input_, diff), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, BroadcastReplayIsOptInAndBitIdentical) {
  // Same-image unit packs (DESIGN.md §12): the baseline runs at batch 1
  // and the differential pass packs N copies of that exact row.
  const Tensor one = probe_image(1);
  const std::size_t rows = 3;
  Tensor packed(Shape{rows, 3, 32, 32});
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(one.data().begin(), one.data().end(),
              packed.data().begin() + static_cast<std::ptrdiff_t>(r * one.numel()));
  }
  const Tensor packed_full = net_->forward(packed);

  InferenceWorkspace base;
  base.run(*net_, one);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);

  // Without the opt-in, a batch-1 baseline under a batch-N pass must
  // degrade to full recompute: shapes alone cannot prove row equality.
  expect_bitwise_equal(net_->forward_from(3, packed, diff), packed_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);

  // With the caller's row-equality promise, the cone replicates the
  // baseline rows and still matches the full pass bit for bit.  No hook
  // injects, so every row of every leaf stays clean: all 13 leaves are
  // served from the baseline, whatever the armed boundary.
  diff.set_prefix_broadcast(true);
  expect_bitwise_equal(net_->forward_from(3, packed, diff), packed_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), 13u);
  EXPECT_EQ(diff.prefix_reused_last_run(), base.leaf_count());
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), 13u * rows);
}

TEST_F(DifferentialPrefix, RaggedRowsMatchFullRecompute) {
  // A same-image pack under fault-cone replay (DESIGN.md §12): a hook
  // injects into row r alone at leaf boundaries[r], in pack order, and
  // the last row is never injected.  Every pass, with or without an
  // observer veto, must match a full recompute bit for bit, and every
  // hook call must see the whole pack.
  const Tensor one = probe_image(1);
  constexpr std::size_t kRows = 5;
  Tensor packed(Shape{kRows, 3, 32, 32});
  for (std::size_t r = 0; r < kRows; ++r) {
    std::copy(one.data().begin(), one.data().end(),
              packed.data().begin() + static_cast<std::ptrdiff_t>(r * one.numel()));
  }
  const std::vector<std::size_t> boundaries = {6, 0, 10, 3,
                                               InferenceWorkspace::kSkipAllLeaves};

  // Leaf i of the flat MiniAlexNet is child i.  The hooks inject only
  // while armed, so the baseline stays fault-free.
  const auto& leaves = net_->children();
  bool armed = false;
  std::size_t hook_calls = 0;
  std::size_t short_calls = 0;  // hook calls that saw fewer than kRows rows
  std::vector<HookHandle> handles;
  for (std::size_t leaf = 0; leaf < leaves.size(); ++leaf) {
    handles.push_back(leaves[leaf].second->register_forward_hook(
        [&, leaf](Module&, const Tensor&, Tensor& output) {
          if (!armed) return;
          ++hook_calls;
          if (output.dim(0) != kRows) {
            ++short_calls;
            return;
          }
          const std::size_t per_row = output.numel() / kRows;
          for (std::size_t r = 0; r + 1 < kRows; ++r) {
            if (boundaries[r] == leaf) output.raw()[r * per_row + per_row / 2] += 3.0f;
          }
        }));
  }
  // The cone's exact counts: the (row, leaf) pairs whose leaf input the
  // faults left bit-identical to the batch-1 pass.  A row's input is
  // clean up to and including its injecting leaf, so the cone serves at
  // least 7 + 1 + 11 + 4 + 13 pairs and leaf 0 outright.
  const test::ConeCounts cone =
      test::cone_counts(*net_, one, packed, [&](bool on) { armed = on; });
  EXPECT_GE(cone.rows, 7u + 1 + 11 + 4 + 13);
  EXPECT_GE(cone.leaves, 1u);
  armed = true;
  const Tensor packed_full = net_->forward(packed);
  armed = false;

  InferenceWorkspace base;
  base.run(*net_, one);
  ProbeObserver observer;
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.set_prefix_broadcast(true);
  diff.add_prefix_observer(&observer);
  armed = true;
  for (int pass = 0; pass < 2; ++pass) {  // planning pass, then steady state
    hook_calls = 0;
    diff.set_prefix_boundary(0);  // a broadcast pass takes any armed value
    expect_bitwise_equal(diff.run(*net_, packed), packed_full);
    EXPECT_EQ(hook_calls, leaves.size());
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
    EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves);
  }

  // Broadcast leaves run their real hooks, so an observer veto changes
  // nothing: the rows a clamp would alter show up in the comparison.
  observer.veto_at = leaves[4].second.get();
  hook_calls = 0;
  diff.set_prefix_boundary(0);
  expect_bitwise_equal(diff.run(*net_, packed), packed_full);
  EXPECT_EQ(hook_calls, leaves.size());
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
  armed = false;
  for (std::size_t leaf = 0; leaf < leaves.size(); ++leaf) {
    leaves[leaf].second->remove_forward_hook(handles[leaf]);
  }
  EXPECT_EQ(short_calls, 0u);
  EXPECT_TRUE(observer.replayed.empty());  // broadcast leaves run real hooks
}

TEST_F(DifferentialPrefix, ConeComparesAgainWhereAContainerHookRewroteALeafSlot) {
  // A nested Sequential returns its last leaf's slot, whose rows that
  // leaf already described as clean; a hook on the container then
  // dirties row 1 of it.  The next leaf must see that row as dirty.
  auto inner = std::make_shared<Sequential>();
  inner->append(std::make_shared<Conv2d>(3, 4, 3, 1, 1));
  inner->append(std::make_shared<ReLU>());
  auto net = std::make_shared<Sequential>();
  net->append(inner);
  net->append(std::make_shared<Conv2d>(4, 4, 3, 1, 1));
  net->append(std::make_shared<GlobalAvgPool2d>());
  net->append(std::make_shared<Linear>(4, 3));
  Rng rng(5);
  kaiming_init(*net, rng);

  const Tensor one = probe_image(1);
  constexpr std::size_t kRows = 3;
  Tensor packed(Shape{kRows, 3, 32, 32});
  for (std::size_t r = 0; r < kRows; ++r) {
    std::copy(one.data().begin(), one.data().end(),
              packed.data().begin() + static_cast<std::ptrdiff_t>(r * one.numel()));
  }
  bool armed = false;
  const HookHandle handle = inner->register_forward_hook(
      [&armed](Module&, const Tensor&, Tensor& output) {
        if (armed && output.dim(0) == kRows) output.raw()[output.numel() / kRows + 7] += 5.0f;
      });
  armed = true;
  const Tensor expected = net->forward(packed);
  armed = false;

  InferenceWorkspace base;
  base.run(*net, one);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.set_prefix_broadcast(true);
  armed = true;
  for (int pass = 0; pass < 2; ++pass) {
    diff.set_prefix_boundary(0);
    expect_bitwise_equal(diff.run(*net, packed), expected);
    // Rows 0 and 2 stay clean through all five leaves; row 1 through
    // the container's two.
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), 5u + 2 + 5);
  }
  inner->remove_forward_hook(handle);
}

TEST_F(DifferentialPrefix, ObserverVetoMaterializesAndRunsRealHooks) {
  InferenceWorkspace base;
  base.run(*net_, input_);

  // Veto replay at leaf 2: leaves 0-1 replay, leaf 2 materializes (its
  // real hooks run on the copied baseline values), and the prefix
  // breaks — everything after recomputes even though the boundary was 5.
  Module* veto_leaf = net_->children()[2].second.get();
  int hook_calls = 0;
  const HookHandle handle = veto_leaf->register_forward_hook(
      [&hook_calls](Module&, const Tensor&, Tensor&) { ++hook_calls; });

  ProbeObserver observer;
  observer.veto_at = veto_leaf;
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.add_prefix_observer(&observer);
  expect_bitwise_equal(net_->forward_from(5, input_, diff), full_);
  veto_leaf->remove_forward_hook(handle);

  EXPECT_EQ(diff.prefix_reused_last_run(), 2u);  // only leaves 0 and 1
  EXPECT_EQ(hook_calls, 1);  // the vetoed leaf's hooks really ran
  ASSERT_EQ(observer.replayed.size(), 2u);
  EXPECT_EQ(observer.replayed[0], net_->children()[0].second.get());
  EXPECT_EQ(observer.replayed[1], net_->children()[1].second.get());
}

TEST_F(DifferentialPrefix, ObserversSeeSkippedLeavesInExecutionOrder) {
  InferenceWorkspace base;
  base.run(*net_, input_);
  ProbeObserver observer;
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.add_prefix_observer(&observer);
  net_->forward_from(4, input_, diff);
  ASSERT_EQ(observer.replayed.size(), 4u);
  for (std::size_t i = 0; i < observer.replayed.size(); ++i) {
    EXPECT_EQ(diff.leaf_exec_index(*observer.replayed[i]), i);
  }
}

TEST_F(DifferentialPrefix, LeafExecIndexMapsExecutionOrder) {
  InferenceWorkspace ws;
  EXPECT_EQ(ws.leaf_count(), 0u);
  ws.run(*net_, input_);
  EXPECT_EQ(ws.leaf_exec_index(*net_->children()[0].second), 0u);
  EXPECT_EQ(ws.leaf_exec_index(*net_->children()[1].second), 1u);
  // A module this workspace never executed has no index.
  const Conv2d foreign(3, 4, 3, 1, 1);
  EXPECT_EQ(ws.leaf_exec_index(foreign), std::nullopt);
}

TEST_F(DifferentialPrefix, SuffixHooksStillFireUnderAnArmedPrefix) {
  InferenceWorkspace base;
  base.run(*net_, input_);

  // A mutating hook on a suffix leaf must behave exactly as on the
  // allocating path even when the leaves before it were replayed.
  Module* suffix_leaf = net_->children()[3].second.get();
  const HookHandle handle = suffix_leaf->register_forward_hook(
      [](Module&, const Tensor&, Tensor& output) {
        for (float& v : output.data()) v *= 0.5f;
      });
  const Tensor hooked_full = net_->forward(input_);

  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  expect_bitwise_equal(net_->forward_from(3, input_, diff), hooked_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), 3u);
  suffix_leaf->remove_forward_hook(handle);
}

TEST_F(DifferentialPrefix, RootChildStartMatchesFullPass) {
  // A start at root child c from the tensor a fault-free pass fed it is
  // that pass's suffix: bit-identical logits, and no hook of a leaf
  // before c runs.  MiniResNet nests Residual blocks under its root,
  // MiniTransformer feeds token ids through blocks of several leaves.
  const data::SyntheticSequenceClassification sequences({.size = 2, .seed = 17});
  const Tensor tokens = sequences.get(0).image;
  Tensor sequence(Shape{1, tokens.numel()});
  std::copy(tokens.data().begin(), tokens.data().end(), sequence.data().begin());
  const std::vector<std::pair<std::shared_ptr<Sequential>, Tensor>> cases = {
      {models::make_mini_resnet(), probe_image(1)},
      {models::make_mini_transformer({}), sequence},
  };
  for (const auto& [net, input] : cases) {
    Rng rng(17);
    kaiming_init(*net, rng);
    InferenceWorkspace full;
    const Tensor expected = full.run(*net, input);

    // Count the hook calls of every leaf, by the root child it sits in.
    std::vector<std::size_t> calls(net->size(), 0);
    std::vector<std::pair<Module*, HookHandle>> handles;
    for (std::size_t c = 0; c < net->size(); ++c) {
      net->children()[c].second->for_each_module([&](const std::string&, Module& m) {
        if (!m.children().empty()) return;
        handles.emplace_back(&m, m.register_forward_hook(
                                     [&calls, c](Module&, const Tensor&, Tensor&) {
                                       ++calls[c];
                                     }));
      });
    }
    std::size_t root_calls = 0;
    const HookHandle root_handle = net->register_forward_hook(
        [&root_calls](Module&, const Tensor&, Tensor&) { ++root_calls; });

    InferenceWorkspace ws;
    ws.set_prefix_baseline(&full);  // a leaked boundary would replay from it
    ws.run(*net, input);
    for (std::size_t c = 0; c < net->size(); ++c) {
      const Tensor live = c == 0 ? input : *full.root_child_output(c - 1);
      std::fill(calls.begin(), calls.end(), std::size_t{0});
      root_calls = 0;
      ws.set_prefix_boundary(InferenceWorkspace::kSkipAllLeaves);  // consumed, not used
      expect_bitwise_equal(ws.run_from_child(*net, c, live), expected);
      EXPECT_EQ(ws.prefix_reused_last_run(), 0u);
      EXPECT_EQ(root_calls, 1u) << c;
      for (std::size_t before = 0; before < c; ++before) {
        EXPECT_EQ(calls[before], 0u) << "child " << before << " ran for a start at " << c;
      }
      EXPECT_GT(calls[c], 0u) << c;
      // The boundary armed before the start did not outlive it.
      expect_bitwise_equal(ws.run(*net, input), expected);
      EXPECT_EQ(ws.prefix_reused_last_run(), 0u);
    }
    for (const auto& [m, handle] : handles) m->remove_forward_hook(handle);
    net->remove_forward_hook(root_handle);

    // An unplanned workspace, a child past the end and a live tensor of
    // the wrong shape are refused.
    InferenceWorkspace unplanned;
    EXPECT_THROW(unplanned.run_from_child(*net, 0, input), Error);
    EXPECT_THROW(ws.run_from_child(*net, net->size(), input), Error);
    EXPECT_THROW(ws.run_from_child(*net, 1, Tensor(Shape{1, 1})), Error);
  }

  // A non-Sequential root has no root children to start from.
  auto leaf = std::make_shared<Conv2d>(3, 4, 3, 1, 1);
  const Tensor image = probe_image(1);
  InferenceWorkspace leaf_ws;
  leaf_ws.run(*leaf, image);
  EXPECT_THROW(leaf_ws.run_from_child(*leaf, 0, image), Error);
}

}  // namespace
}  // namespace alfi::nn
