// Zero-allocation regression guard: after the planning pass, workspace
// inference must never touch the heap.  The global operator new/delete
// pair below counts every allocation made while `g_counting` is set;
// the tests warm a model up, switch the counter on, run steady-state
// inferences, and require the count to stay at zero (DESIGN.md §10).
// The counter also records the largest single request, which bounds
// what a corrupt length prefix can make the binary reader allocate.
//
// Assertions never run inside the counted region — gtest itself
// allocates — so each test snapshots the counter before and after.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <span>

#include "data/synthetic.h"
#include "io/binary.h"
#include "models/classification.h"
#include "nn/layers.h"
#include "nn/workspace.h"
#include "test_common.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_alloc_count{0};
std::atomic<std::size_t> g_largest_request{0};
std::atomic<bool> g_counting{false};

void note_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_request.compare_exchange_weak(largest, size,
                                                    std::memory_order_relaxed)) {
    }
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The deletes pair with the malloc-based operator new above.  GCC
// cannot see that pairing once a delete is inlined into code that
// called operator new, and warns -Wmismatched-new-delete on the
// free(); the warning is a false positive for a replaced allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace alfi::nn {
namespace {

Tensor probe_image(std::size_t batch) {
  const data::SyntheticShapesClassification dataset(
      {.size = batch, .num_classes = 10, .seed = 23});
  Tensor input(Shape{batch, 3, 32, 32});
  for (std::size_t i = 0; i < batch; ++i) {
    const Tensor image = dataset.get(i).image;
    std::copy(image.data().begin(), image.data().end(),
              input.data().begin() + static_cast<std::ptrdiff_t>(i * image.numel()));
  }
  return input;
}

/// Runs `iterations` steady-state inferences and returns the number of
/// heap allocations they made.  The sink defeats dead-code elimination.
std::size_t count_steady_state_allocs(InferenceWorkspace& ws, Module& model,
                                      const Tensor& input, int iterations) {
  volatile float sink = 0.0f;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iterations; ++i) {
    const Tensor& out = ws.run(model, input);
    sink = sink + out.flat(0);
  }
  g_counting.store(false, std::memory_order_relaxed);
  (void)sink;
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocRegression, SteadyStateWorkspaceInferenceIsHeapFree) {
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  InferenceWorkspace ws;
  ws.run(*net, input);  // planning pass: allocates slots + scratch
  ws.run(*net, input);  // warmup: must already be allocation-free
  EXPECT_EQ(count_steady_state_allocs(ws, *net, input, 16), 0u);
}

TEST(AllocRegression, BatchedInferenceIsHeapFree) {
  // The campaign's batched evaluation path: batch > 1 through the same
  // planned buffers.
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(8);

  InferenceWorkspace ws;
  ws.run(*net, input);
  ws.run(*net, input);
  EXPECT_EQ(count_steady_state_allocs(ws, *net, input, 8), 0u);
}

TEST(AllocRegression, HookedInferenceIsHeapFree) {
  // Campaign hooks (inject / monitor / clamp) mutate slot elements in
  // place; the hook dispatch itself must not allocate either.
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  Module* target = net->children()[0].second.get();
  const HookHandle handle = target->register_forward_hook(
      [](Module&, const Tensor&, Tensor& output) {
        for (float& v : output.data()) {
          if (v > 4.0f) v = 4.0f;  // Ranger-style clamp
        }
      });

  InferenceWorkspace ws;
  ws.run(*net, input);
  ws.run(*net, input);
  const std::size_t allocs = count_steady_state_allocs(ws, *net, input, 16);
  target->remove_forward_hook(handle);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocRegression, SameImagePackPassesAreHeapFree) {
  // run_unit_pack's alternation (DESIGN.md §12): a batch-1 fault-free
  // pass, then a K-row pass of the same image replaying it through the
  // fault cone, where hooks dirty rows 0-2 at different leaves.  Both
  // passes share every Conv2d's plan, whatever their batch size, and
  // the cone's boxes, row views and window plans are reused.
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor one = probe_image(1);
  constexpr std::size_t kRows = 4;
  Tensor packed(Shape{kRows, 3, 32, 32});
  for (std::size_t r = 0; r < kRows; ++r) {
    std::copy(one.data().begin(), one.data().end(),
              packed.data().begin() + static_cast<std::ptrdiff_t>(r * one.numel()));
  }
  const std::size_t boundaries[] = {0, 3, 7};  // row r's injecting leaf
  bool armed = false;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> handles;
  for (std::size_t leaf = 0; leaf < net->size(); ++leaf) {
    nn::Module* module = net->children()[leaf].second.get();
    handles.emplace_back(module, module->register_forward_hook(
                                     [&armed, &boundaries, leaf](nn::Module&, const Tensor&,
                                                                 Tensor& output) {
                                       if (!armed || output.dim(0) != kRows) return;
                                       const std::size_t per_row = output.numel() / kRows;
                                       for (std::size_t r = 0; r < 3; ++r) {
                                         if (boundaries[r] == leaf) {
                                           output.raw()[r * per_row + per_row / 3] += 2.0f;
                                         }
                                       }
                                     }));
  }
  const test::ConeCounts cone =
      test::cone_counts(*net, one, packed, [&](bool on) { armed = on; });

  InferenceWorkspace base;
  InferenceWorkspace pack;
  pack.set_prefix_baseline(&base);
  const auto alternate = [&] {
    armed = false;
    volatile float sink = base.run(*net, one).flat(0);
    armed = true;
    pack.arm();
    sink = sink + pack.run(*net, packed).flat(0);
    armed = false;
    (void)sink;
  };
  alternate();  // planning passes
  alternate();  // warmup
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) alternate();
  g_counting.store(false, std::memory_order_relaxed);
  for (const auto& [module, handle] : handles) module->remove_forward_hook(handle);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(pack.prefix_rows_reused_last_run(), cone.rows);
  EXPECT_EQ(pack.prefix_reused_last_run(), cone.leaves);
  EXPECT_GE(cone.rows, 1u + 4 + 8 + 13);  // each row clean through its injecting leaf
}

TEST(AllocRegression, OneUnitAndGatherConePassesAreHeapFree) {
  // The cone's other shapes (DESIGN.md §12): a one-unit pass against the
  // batch-1 fault-free pass of its image, and a gather pack against a
  // fault-free pass of the same four images.  Hooks dirty row 0 at leaf 3
  // and the last row at leaf 7; every third alternation also corrupts a
  // weight of the conv at leaf 6 and names it to arm(), so that leaf
  // computes every row (DESIGN.md §10's guarantee covers weight faults).
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor one = probe_image(1);
  const Tensor gather = probe_image(4);
  bool armed = false;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> handles;
  for (const std::size_t leaf : {3, 7}) {
    nn::Module* module = net->children()[leaf].second.get();
    handles.emplace_back(module, module->register_forward_hook(
                                     [&armed, leaf](nn::Module&, const Tensor&, Tensor& output) {
                                       if (!armed) return;
                                       const std::size_t rows = output.dim(0);
                                       const std::size_t per_row = output.numel() / rows;
                                       const std::size_t row = leaf == 3 ? 0 : rows - 1;
                                       output.raw()[row * per_row + per_row / 3] += 2.0f;
                                     }));
  }
  nn::Module* conv = net->children()[6].second.get();
  float& weight = conv->weight_param()->value.flat(5);
  const float original = weight;
  const nn::Module* const changed[] = {conv};

  InferenceWorkspace base1, pass1, base4, pass4;
  pass1.set_prefix_baseline(&base1);
  pass4.set_prefix_baseline(&base4);
  const Tensor* outs[2] = {nullptr, nullptr};
  std::size_t step = 0;
  const auto alternate = [&] {
    const bool corrupt = step++ % 3 == 2;
    armed = false;
    volatile float sink = base1.run(*net, one).flat(0);
    sink = sink + base4.run(*net, gather).flat(0);
    armed = true;
    if (corrupt) weight = -4.0f * original;
    const std::span<const nn::Module* const> weights =
        corrupt ? std::span<const nn::Module* const>(changed)
                : std::span<const nn::Module* const>();
    pass1.arm(weights);
    outs[0] = &pass1.run(*net, one);
    pass4.arm(weights);
    outs[1] = &pass4.run(*net, gather);
    sink = sink + outs[0]->flat(0) + outs[1]->flat(0);
    weight = original;
    armed = false;
    (void)sink;
  };
  for (int i = 0; i < 3; ++i) alternate();  // planning passes, warmup, a weight fault
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 9; ++i) alternate();
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);

  // The last alternation armed the weight fault; both passes equal the
  // allocating forward under it, and the cone served something.
  ASSERT_EQ(step % 3, 0u);
  armed = true;
  weight = -4.0f * original;
  const Tensor expected1 = net->forward(one);
  const Tensor expected4 = net->forward(gather);
  weight = original;
  armed = false;
  for (const auto& [module, handle] : handles) module->remove_forward_hook(handle);
  ASSERT_EQ(outs[0]->numel(), expected1.numel());
  ASSERT_EQ(outs[1]->numel(), expected4.numel());
  EXPECT_EQ(std::memcmp(outs[0]->raw(), expected1.raw(), expected1.numel() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(outs[1]->raw(), expected4.raw(), expected4.numel() * sizeof(float)), 0);
  EXPECT_GE(pass1.prefix_reused_last_run(), 3u);   // the leaves before leaf 3
  EXPECT_GE(pass4.prefix_rows_reused_last_run(), 4u * 3 + 3);  // rows 1-3 through leaf 3
}

TEST(AllocRegression, RootChildStartIsHeapFree) {
  // The fault-free cache's hit path (DESIGN.md §11.1): full passes
  // alternating with starts at three root children, each from a tensor
  // a full pass recorded, stay heap-free once planned.
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);
  InferenceWorkspace base;
  InferenceWorkspace ws;
  base.run(*net, input);
  const std::vector<std::pair<std::size_t, Tensor>> starts = {
      {0, input}, {3, *base.root_child_output(2)}, {10, *base.root_child_output(9)}};
  const auto alternate = [&] {
    volatile float sink = ws.run(*net, input).flat(0);
    for (const auto& [child, live] : starts) {
      sink = sink + ws.run_from_child(*net, child, live).flat(0);
    }
    (void)sink;
  };
  alternate();  // planning pass
  alternate();  // warmup
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) alternate();
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
}

/// Writes `length` as a u64 length prefix followed by zero bytes up to
/// `file_size` bytes, then reads it back with `read`.  Returns the
/// largest heap request the read made.
template <typename ReadFn>
std::size_t largest_request_reading(const std::string& path, std::uint64_t length,
                                    std::size_t file_size, ReadFn read) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&length), sizeof length);
    const std::string padding(file_size - sizeof length, '\0');
    out.write(padding.data(), static_cast<std::streamsize>(padding.size()));
  }
  io::BinaryReader reader(path);  // the stream's own buffer is not counted
  g_largest_request.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  bool threw = false;
  try {
    read(reader);
  } catch (const ParseError&) {
    threw = true;
  }
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(threw) << "length " << length;
  return g_largest_request.load(std::memory_order_relaxed);
}

TEST(AllocRegression, BinaryLengthPrefixIsBoundedByTheFile) {
  // A corrupt length must fail as ParseError before the reader sizes a
  // buffer from it: never ask the heap for more than the file holds.
  test::TempDir dir("binary_bounds");
  constexpr std::size_t kFileSize = 4096;
  const std::size_t string_request = largest_request_reading(
      dir.file("string.bin"), std::uint64_t{1} << 28, kFileSize,
      [](io::BinaryReader& r) { r.read_string(); });
  EXPECT_LE(string_request, kFileSize);
  const std::size_t floats_request = largest_request_reading(
      dir.file("floats.bin"), std::uint64_t{1} << 26, kFileSize,
      [](io::BinaryReader& r) { r.read_f32_array(); });
  EXPECT_LE(floats_request, kFileSize);
  const std::size_t ints_request = largest_request_reading(
      dir.file("ints.bin"), std::uint64_t{1} << 25, kFileSize,
      [](io::BinaryReader& r) { r.read_i64_array(); });
  EXPECT_LE(ints_request, kFileSize);
}

TEST(AllocRegression, LegacyForwardAllocatesAsBaseline) {
  // Sanity check that the counter instrumentation works at all: the
  // allocating forward() path must register heap traffic.
  auto net = models::make_mini_alexnet();
  Rng rng(17);
  kaiming_init(*net, rng);
  const Tensor input = probe_image(1);

  volatile float sink = 0.0f;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const Tensor out = net->forward(input);
  sink = sink + out.flat(0);
  g_counting.store(false, std::memory_order_relaxed);
  (void)sink;
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace alfi::nn
