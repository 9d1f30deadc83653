// InferenceWorkspace: arena-backed eval-mode inference must be
// bit-identical to the allocating forward() path, keep hook semantics
// (hooks mutate the slot in place and downstream layers consume the
// mutated values), and replan transparently when the root model or the
// input shape changes (DESIGN.md §10).
#include "nn/workspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
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

// ---- differential inference (fault-cone replay, DESIGN.md §11-§12) ------

/// Concatenates batch-1 tensors along dim 0.
Tensor pack_rows(const std::vector<const Tensor*>& rows) {
  std::vector<std::size_t> dims = rows[0]->shape().dims();
  dims[0] = rows.size();
  Tensor packed{Shape(std::move(dims))};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r]->data().begin(), rows[r]->data().end(),
              packed.data().begin() + static_cast<std::ptrdiff_t>(r * rows[r]->numel()));
  }
  return packed;
}

class DifferentialPrefix : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = models::make_mini_alexnet();
    Rng rng(17);
    kaiming_init(*net_, rng);
    input_ = probe_image(2);
    full_ = net_->forward(input_);
  }

  void TearDown() override {
    for (std::size_t leaf = 0; leaf < handles_.size(); ++leaf) {
      net_->children()[leaf].second->remove_forward_hook(handles_[leaf]);
    }
  }

  /// Hooks every leaf of the flat net with `hook(leaf, output)`, which
  /// runs only while `armed_` is set (so baselines stay fault-free).
  void hook_leaves(std::function<void(std::size_t, Tensor&)> hook) {
    hook_ = std::move(hook);
    for (std::size_t leaf = 0; leaf < net_->size(); ++leaf) {
      handles_.push_back(net_->children()[leaf].second->register_forward_hook(
          [this, leaf](Module&, const Tensor&, Tensor& output) {
            if (armed_) hook_(leaf, output);
          }));
    }
  }

  /// The allocating forward of `input` with the hooks armed, and the
  /// cone's exact counts for an armed pass on it against a baseline pass
  /// on `baseline_input` (test::cone_counts).
  std::pair<Tensor, test::ConeCounts> armed_reference(const Tensor& baseline_input,
                                                      const Tensor& input) {
    const test::ConeCounts counts =
        test::cone_counts(*net_, baseline_input, input, [this](bool on) { armed_ = on; });
    armed_ = true;
    Tensor expected = net_->forward(input);
    armed_ = false;
    return {std::move(expected), counts};
  }

  /// One armed pass of `input` through `ws`, hooks armed.
  const Tensor& armed_run(InferenceWorkspace& ws, const Tensor& input) {
    ws.arm();
    armed_ = true;
    const Tensor& out = ws.run(*net_, input);
    armed_ = false;
    return out;
  }

  std::shared_ptr<Sequential> net_;
  Tensor input_;
  Tensor full_;
  bool armed_ = false;
  std::function<void(std::size_t, Tensor&)> hook_;
  std::vector<HookHandle> handles_;
};

TEST_F(DifferentialPrefix, ReplayedPrefixIsBitIdenticalToFullRecompute) {
  // A hook perturbs row 1 at leaf k: every leaf up to k reads the
  // fault-free pass's input in both rows and is served from the
  // baseline, and the pass still equals a full recompute bit for bit —
  // for every k (k == the leaf count: no fault at all).
  InferenceWorkspace base;
  base.run(*net_, input_);
  const std::size_t leaves = base.leaf_count();
  ASSERT_EQ(leaves, net_->size());
  std::size_t fault_leaf = 0;
  hook_leaves([&fault_leaf](std::size_t leaf, Tensor& output) {
    const std::size_t per_row = output.numel() / output.dim(0);
    if (leaf == fault_leaf) output.raw()[per_row + per_row / 2] += 3.0f;
  });

  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  for (fault_leaf = 0; fault_leaf <= leaves; ++fault_leaf) {
    const auto [expected, cone] = armed_reference(input_, input_);
    expect_bitwise_equal(armed_run(diff, input_), expected);
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows) << fault_leaf;
    EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves) << fault_leaf;
    EXPECT_GE(diff.prefix_reused_last_run(), std::min(fault_leaf + 1, leaves)) << fault_leaf;
  }
}

TEST_F(DifferentialPrefix, BoundaryIsConsumedByOneRun) {
  InferenceWorkspace base;
  base.run(*net_, input_);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), base.leaf_count());
  // A plain run() right after must fully recompute: arm() is one-shot,
  // not sticky.
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, SkipAllLeavesReturnsTheBaselineSlot) {
  // A pass no fault reaches serves every (row, leaf) pair from the
  // baseline — by copy into its own slots, so the two passes' outputs
  // coexist.
  InferenceWorkspace base;
  const Tensor& base_out = base.run(*net_, input_);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.arm();
  const Tensor& out = diff.run(*net_, input_);
  EXPECT_EQ(diff.prefix_reused_last_run(), diff.leaf_count());
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), 2 * diff.leaf_count());
  EXPECT_NE(out.raw(), base_out.raw());
  expect_bitwise_equal(out, full_);
  expect_bitwise_equal(base_out, full_);
}

TEST_F(DifferentialPrefix, SelfBaselineReplaysOwnPreviousPass) {
  // The object-detection harness's pattern, a fault-free workspace plus
  // an armed one: armed passes in a row (corrupted, then hardened) replay
  // the one fault-free pass, and each reads nothing the one before wrote.
  InferenceWorkspace base;
  base.run(*net_, input_);
  std::size_t fault_leaf = 4;
  hook_leaves([&fault_leaf](std::size_t leaf, Tensor& output) {
    if (leaf == fault_leaf) output.raw()[7] += 3.0f;
  });
  InferenceWorkspace armed;
  armed.set_prefix_baseline(&base);
  for (const std::size_t leaf : {4, 6, 4}) {
    fault_leaf = leaf;
    const auto [expected, cone] = armed_reference(input_, input_);
    expect_bitwise_equal(armed_run(armed, input_), expected);
    EXPECT_EQ(armed.prefix_rows_reused_last_run(), cone.rows) << leaf;
    EXPECT_GE(armed.prefix_reused_last_run(), leaf + 1) << leaf;
  }
}

TEST_F(DifferentialPrefix, WorkspaceCannotBeItsOwnBaseline) {
  // An armed run overwrites the slots it would replay.
  InferenceWorkspace ws;
  EXPECT_THROW(ws.set_prefix_baseline(&ws), Error);
  ws.run(*net_, input_);
  EXPECT_THROW(ws.set_prefix_baseline(&ws), Error);
  EXPECT_NO_THROW(ws.set_prefix_baseline(nullptr));
}

TEST_F(DifferentialPrefix, ArmedPassOnAnotherImageRecomputesWhatDiffers) {
  // The baseline ran image A.  An armed pass on image B compares its
  // input with the baseline's copy of A and recomputes what differs: a
  // batch-1 pass on B equals a full pass on B, and in a pack [A, B, A]
  // only row 1 computes.  A gather baseline [A, B] under the pass
  // [A, C] reads its own row r, so only row 1 computes there too.
  const Tensor a = probe_image(1);
  const Tensor b = probe_image(1, 41);
  const Tensor c = probe_image(1, 43);
  ASSERT_NE(std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)), 0);
  const auto no_hooks = [](bool) {};

  InferenceWorkspace base;
  base.run(*net_, a);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, b), net_->forward(b));
  const test::ConeCounts whole = test::cone_counts(*net_, a, b, no_hooks);
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), whole.rows);
  EXPECT_EQ(diff.prefix_reused_last_run(), whole.leaves);
  EXPECT_LT(whole.leaves, net_->size());

  const Tensor pack = pack_rows({&a, &b, &a});
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, pack), net_->forward(pack));
  const test::ConeCounts one_row = test::cone_counts(*net_, a, pack, no_hooks);
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), one_row.rows);
  EXPECT_EQ(one_row.rows, 2 * net_->size() + whole.rows);

  const Tensor gather_base = pack_rows({&a, &b});
  const Tensor gather = pack_rows({&a, &c});
  InferenceWorkspace base2;
  base2.run(*net_, gather_base);
  InferenceWorkspace diff2;
  diff2.set_prefix_baseline(&base2);
  diff2.arm();
  expect_bitwise_equal(diff2.run(*net_, gather), net_->forward(gather));
  const test::ConeCounts gathered = test::cone_counts(*net_, gather_base, gather, no_hooks);
  EXPECT_EQ(diff2.prefix_rows_reused_last_run(), gathered.rows);
  EXPECT_GE(gathered.rows, net_->size());  // row 0 at every leaf
}

TEST_F(DifferentialPrefix, ArmedWeightLeavesComputeEveryRow) {
  // A corrupted weight changes rows whose input is clean: the leaf that
  // owns it, named by arm(), computes every row, and the comparison after
  // it finds what changed.
  const Tensor one = probe_image(1);
  const Tensor packed = pack_rows({&one, &one, &one});
  Module* conv = net_->children()[3].second.get();
  float& weight = conv->weight_param()->value.flat(11);
  const float original = weight;
  InferenceWorkspace base;
  base.run(*net_, one);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  const Module* const changed[] = {conv};
  const std::vector<const Module*> computed(std::begin(changed), std::end(changed));
  for (const Tensor* input : {&one, &packed}) {
    const test::ConeCounts cone = test::cone_counts(
        *net_, one, *input, [&](bool on) { weight = on ? original * -8.0f : original; },
        computed);
    weight = original * -8.0f;
    const Tensor expected = net_->forward(*input);
    diff.arm(changed);
    expect_bitwise_equal(diff.run(*net_, *input), expected);
    weight = original;
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
    EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves);
    EXPECT_GE(cone.leaves, 3u);  // the leaves before the conv
    EXPECT_LT(cone.leaves, net_->size());
  }
}

TEST_F(DifferentialPrefix, UnplannedBaselineDegradesToFullRecompute) {
  InferenceWorkspace never_ran;
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&never_ran);
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);

  // Nor is a baseline whose latest pass was a root-child start: its input
  // copy does not describe its slots.
  InferenceWorkspace started;
  started.run(*net_, input_);
  started.run_from_child(*net_, 3, *started.root_child_output(2));
  diff.set_prefix_baseline(&started);
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, BaselineShapeMismatchDegradesToFullRecompute) {
  // A baseline of neither 1 row nor the pass's rows cannot be replayed.
  InferenceWorkspace base;
  base.run(*net_, probe_image(3));
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, input_), full_);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), 0u);
}

TEST_F(DifferentialPrefix, BroadcastReplayIsOptInAndBitIdentical) {
  // Same-image unit packs (DESIGN.md §12): the baseline runs at batch 1
  // and the pass packs N copies of that exact row.
  const Tensor one = probe_image(1);
  const std::size_t rows = 3;
  const Tensor packed = pack_rows({&one, &one, &one});
  const Tensor packed_full = net_->forward(packed);

  InferenceWorkspace base;
  base.run(*net_, one);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);

  // Unarmed, the pass recomputes everything.
  expect_bitwise_equal(diff.run(*net_, packed), packed_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), 0u);

  // Armed, the cone replicates the baseline rows and still matches the
  // full pass bit for bit.  No hook injects, so every row of every leaf
  // stays clean: all 13 leaves are served from the baseline.
  diff.arm();
  expect_bitwise_equal(diff.run(*net_, packed), packed_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), 13u);
  EXPECT_EQ(diff.prefix_reused_last_run(), base.leaf_count());
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), 13u * rows);
}

TEST_F(DifferentialPrefix, RaggedRowsMatchFullRecompute) {
  // A same-image pack under fault-cone replay (DESIGN.md §12): a hook
  // injects into row r alone at leaf injecting[r], in pack order, and the
  // last row is never injected.  Every pass must match a full recompute
  // bit for bit, and every hook call must see the whole pack.
  const Tensor one = probe_image(1);
  constexpr std::size_t kRows = 5;
  const Tensor packed = pack_rows({&one, &one, &one, &one, &one});
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  const std::vector<std::size_t> injecting = {6, 0, 10, 3, kNever};

  // Leaf i of the flat MiniAlexNet is child i.
  std::size_t hook_calls = 0;
  std::size_t short_calls = 0;  // hook calls that saw fewer than kRows rows
  hook_leaves([&](std::size_t leaf, Tensor& output) {
    ++hook_calls;
    if (output.dim(0) != kRows) {
      ++short_calls;
      return;
    }
    const std::size_t per_row = output.numel() / kRows;
    for (std::size_t r = 0; r < kRows; ++r) {
      if (injecting[r] == leaf) output.raw()[r * per_row + per_row / 2] += 3.0f;
    }
  });
  // The cone's exact counts: the (row, leaf) pairs whose leaf input the
  // faults left bit-identical to the batch-1 pass.  A row's input is
  // clean up to and including its injecting leaf, so the cone serves at
  // least 7 + 1 + 11 + 4 + 13 pairs and leaf 0 outright.
  const auto [packed_full, cone] = armed_reference(one, packed);
  EXPECT_GE(cone.rows, 7u + 1 + 11 + 4 + 13);
  EXPECT_GE(cone.leaves, 1u);

  InferenceWorkspace base;
  base.run(*net_, one);
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  for (int pass = 0; pass < 2; ++pass) {  // planning pass, then steady state
    hook_calls = 0;
    expect_bitwise_equal(armed_run(diff, packed), packed_full);
    EXPECT_EQ(hook_calls, net_->size());
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
    EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves);
  }
  EXPECT_EQ(short_calls, 0u);
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
  const Tensor packed = pack_rows({&one, &one, &one});
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
  armed = true;
  for (int pass = 0; pass < 2; ++pass) {
    diff.arm();
    expect_bitwise_equal(diff.run(*net, packed), expected);
    // Rows 0 and 2 stay clean through all five leaves; row 1 through
    // the container's two.
    EXPECT_EQ(diff.prefix_rows_reused_last_run(), 5u + 2 + 5);
  }
  inner->remove_forward_hook(handle);
}

TEST_F(DifferentialPrefix, ObserverVetoMaterializesAndRunsRealHooks) {
  // Armed passes run every leaf's real hooks, served or not: a
  // Ranger-style clamp on leaf 2 alters the copied baseline values, the
  // comparison finds what it changed, and the leaves after it recompute
  // those elements — bit-identical to a full recompute.
  InferenceWorkspace base;
  base.run(*net_, input_);
  const float bound = 0.5f * base.root_child_output(2)->max();
  std::size_t clamp_calls = 0;
  hook_leaves([&](std::size_t leaf, Tensor& output) {
    if (leaf != 2) return;
    ++clamp_calls;
    for (float& v : output.data()) v = std::min(v, bound);
  });
  const auto [expected, cone] = armed_reference(input_, input_);
  clamp_calls = 0;

  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  expect_bitwise_equal(armed_run(diff, input_), expected);
  EXPECT_EQ(clamp_calls, 1u);  // the served leaf's hooks really ran
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
  EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves);
  EXPECT_GE(diff.prefix_reused_last_run(), 3u);  // leaves 0-2
  EXPECT_LT(diff.prefix_reused_last_run(), diff.leaf_count());
}

TEST_F(DifferentialPrefix, ObserversSeeSkippedLeavesInExecutionOrder) {
  // Served leaves run their real hooks in execution order, as a full
  // pass does.
  InferenceWorkspace base;
  base.run(*net_, input_);
  std::vector<std::size_t> seen;
  hook_leaves([&seen](std::size_t leaf, Tensor&) { seen.push_back(leaf); });
  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  armed_run(diff, input_);
  EXPECT_EQ(diff.prefix_reused_last_run(), diff.leaf_count());
  ASSERT_EQ(seen.size(), diff.leaf_count());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(diff.leaf_exec_index(*net_->children()[seen[i]].second), i);
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

  // A mutating hook on leaf 3 must behave exactly as on the allocating
  // path even when the leaves up to it were served from the baseline.
  hook_leaves([](std::size_t leaf, Tensor& output) {
    if (leaf != 3) return;
    for (float& v : output.data()) v *= 0.5f;
  });
  const auto [hooked_full, cone] = armed_reference(input_, input_);

  InferenceWorkspace diff;
  diff.set_prefix_baseline(&base);
  expect_bitwise_equal(armed_run(diff, input_), hooked_full);
  EXPECT_EQ(diff.prefix_reused_last_run(), cone.leaves);
  EXPECT_EQ(diff.prefix_rows_reused_last_run(), cone.rows);
  EXPECT_GE(diff.prefix_reused_last_run(), 4u);  // leaves 0-3
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
    ws.set_prefix_baseline(&full);  // a leaked arm() would replay from it
    ws.run(*net, input);
    for (std::size_t c = 0; c < net->size(); ++c) {
      const Tensor live = c == 0 ? input : *full.root_child_output(c - 1);
      std::fill(calls.begin(), calls.end(), std::size_t{0});
      root_calls = 0;
      ws.arm();  // consumed, not used
      expect_bitwise_equal(ws.run_from_child(*net, c, live), expected);
      EXPECT_EQ(ws.prefix_reused_last_run(), 0u);
      EXPECT_EQ(root_calls, 1u) << c;
      for (std::size_t before = 0; before < c; ++before) {
        EXPECT_EQ(calls[before], 0u) << "child " << before << " ran for a start at " << c;
      }
      EXPECT_GT(calls[c], 0u) << c;
      // The arm() before the start did not outlive it.
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
