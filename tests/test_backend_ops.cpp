// Backend-vs-reference sweep (ggml test-backend-ops idiom): every
// registered backend runs every forward kernel over a shape/stride/
// batch grid and is compared against the scalar "ref" oracle.  The
// contract (DESIGN.md §13) is bit-exactness for every op: a backend
// that disagrees by one bit could change fault-injection verdicts.
//
//   * GemmConvLinearBitExact compares matmul, linear_forward,
//     conv2d_forward and conv2d_planned bit for bit over the grids below
//     plus long reductions (LeNet's IN = 1024, col_rows >= 150), with
//     differently-signed and payload-carrying NaNs, ±Inf and ±0 sprinkled
//     through inputs and weights; every NaN output must be the canonical
//     quiet NaN, whichever NaN operand an add happened to propagate.
//   * The older MatmulGrid / LinearGrid / Conv2dGrid cases check the same
//     ops against a per-element relative bound (matmul / conv 1e-5,
//     linear 1e-6) — weaker than the bit-exact case, kept as they were.
//   * Every other op (elementwise, transpose, pooling, activations,
//     batchnorm, softmax heads, conv3d, transformer ops) is compared
//     bitwise.
//
// NaN/Inf inputs and exactly-zero weights are part of the grid: the
// reference conv/matmul skip zero weights to avoid manufacturing NaNs
// from 0 * Inf, and accelerated backends must preserve that semantic.
//
// Registry semantics (resolve/auto/unknown names) are covered at the
// bottom.  New backends get all of this for free by registering.
#include "tensor/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/bits.h"
#include "util/error.h"
#include "util/rng.h"

namespace alfi::tensor {

// gtest appends the printed parameter to every listed test name (and
// CMake's test discovery keeps it in the ctest name).  Print a backend
// by its registry name: the default pointer form changes on every run.
void PrintTo(Backend* backend, std::ostream* os) { *os << backend->name(); }

namespace {

// ---- grid helpers -----------------------------------------------------------

/// Deterministic fill mixing magnitudes, signs and exact zeros.
void fill(Tensor& t, Rng& rng, float scale = 1.0f) {
  for (float& v : t.data()) {
    const double u = rng.uniform(-1.0, 1.0);
    v = static_cast<float>(u * scale);
    if (rng.uniform() < 0.05) v = 0.0f;  // exercise zero-skip paths
  }
}

/// Sprinkles non-finite values the campaign's corrupted passes produce.
void poison(Tensor& t, Rng& rng) {
  auto data = t.data();
  if (data.empty()) return;
  data[static_cast<std::size_t>(rng.uniform(0.0, 1.0) * 0.999 *
                                static_cast<double>(data.size()))] =
      std::numeric_limits<float>::quiet_NaN();
  data[static_cast<std::size_t>(rng.uniform(0.0, 1.0) * 0.999 *
                                static_cast<double>(data.size()))] =
      std::numeric_limits<float>::infinity();
  data[0] = -0.0f;  // signed-zero semantics must survive vectorization
}

Tensor sentinel(const Shape& shape) {
  Tensor t(shape);
  for (float& v : t.data()) v = -1234.5f;  // catches unwritten elements
  return t;
}

/// Bitwise comparison when rel == 0 (NaN payloads and ±0 included);
/// otherwise per-element relative error bound, with non-finite values
/// required to match in kind and sign.
void expect_matches(const Tensor& ref, const Tensor& got, double rel,
                    const std::string& what) {
  ASSERT_EQ(ref.shape(), got.shape()) << what;
  const auto a = ref.data();
  const auto b = got.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rel == 0.0) {
      ASSERT_EQ(bits::to_bits(a[i]), bits::to_bits(b[i]))
          << what << " diverges bitwise at flat index " << i << ": ref "
          << a[i] << " vs " << b[i];
      continue;
    }
    if (std::isnan(a[i])) {
      ASSERT_TRUE(std::isnan(b[i])) << what << " at " << i << ": ref NaN, got "
                                    << b[i];
      continue;
    }
    if (std::isinf(a[i])) {
      ASSERT_EQ(a[i], b[i]) << what << " at " << i;
      continue;
    }
    ASSERT_FALSE(std::isnan(b[i]) || std::isinf(b[i]))
        << what << " at " << i << ": ref " << a[i] << ", got " << b[i];
    const double err = std::fabs(static_cast<double>(a[i]) - b[i]);
    const double bound = rel * std::max(1.0, std::fabs(static_cast<double>(a[i])));
    ASSERT_LE(err, bound) << what << " at flat index " << i << ": ref " << a[i]
                          << " vs " << b[i];
  }
}

// Per-op tolerance contract (documented above; referenced by DESIGN.md §13).
constexpr double kExact = 0.0;
constexpr double kMatmulRel = 1e-5;
constexpr double kConvRel = 1e-5;
constexpr double kLinearRel = 1e-6;

class BackendSweep : public ::testing::TestWithParam<Backend*> {
 protected:
  Backend& b() { return *GetParam(); }
  Backend& ref() { return ref_backend(); }
};

// ---- elementwise + activations (bit-exact) ----------------------------------

TEST_P(BackendSweep, ElementwiseAndActivationsBitExact) {
  Rng rng(7);
  for (const Shape& shape : {Shape{1}, Shape{17}, Shape{64}, Shape{2, 3, 5},
                             Shape{1, 3, 8, 9}}) {
    for (const bool poisoned : {false, true}) {
      Tensor x(shape), y(shape);
      fill(x, rng, 3.0f);
      fill(y, rng, 2.0f);
      if (poisoned) {
        poison(x, rng);
        poison(y, rng);
      }

      const auto check2 = [&](auto op, const char* what) {
        Tensor want = sentinel(shape), got = sentinel(shape);
        op(ref(), want);
        op(b(), got);
        expect_matches(want, got, kExact, what);
      };
      check2([&](const Backend& k, Tensor& d) { k.add(d, x, y); }, "add");
      check2([&](const Backend& k, Tensor& d) { k.sub(d, x, y); }, "sub");
      check2([&](const Backend& k, Tensor& d) { k.mul(d, x, y); }, "mul");
      check2([&](const Backend& k, Tensor& d) { k.scale(d, x, 1.7f); }, "scale");
      check2([&](const Backend& k, Tensor& d) { k.relu(d, x); }, "relu");
      check2([&](const Backend& k, Tensor& d) { k.leaky_relu(d, x, 0.1f); },
             "leaky_relu");
      check2([&](const Backend& k, Tensor& d) { k.sigmoid(d, x); }, "sigmoid");
      check2([&](const Backend& k, Tensor& d) { k.tanh_act(d, x); }, "tanh");
      check2([&](const Backend& k, Tensor& d) { k.clamp(d, x, -0.5f, 0.75f); },
             "clamp");
      // clamp with ±0 bounds: std::min/max ordering is observable there
      check2([&](const Backend& k, Tensor& d) { k.clamp(d, x, 0.0f, 0.0f); },
             "clamp-zero");

      {  // in-place ops mutate their first argument
        Tensor want = Tensor(x), got = Tensor(x);
        ref().add_inplace(want, y);
        b().add_inplace(got, y);
        expect_matches(want, got, kExact, "add_inplace");
      }
      {
        Tensor want = Tensor(x), got = Tensor(x);
        ref().axpy_inplace(want, -0.3f, y);
        b().axpy_inplace(got, -0.3f, y);
        expect_matches(want, got, kExact, "axpy_inplace");
      }
    }
  }
}

TEST_P(BackendSweep, ActivationAliasSafety) {
  // Layers apply activations in place (dst aliases input) — a
  // vectorized kernel must tolerate full aliasing.
  Rng rng(11);
  Tensor x(Shape{3, 19});
  fill(x, rng, 2.0f);
  poison(x, rng);
  Tensor want = Tensor(x);
  ref().relu(want, want);
  Tensor got = Tensor(x);
  b().relu(got, got);
  expect_matches(want, got, kExact, "relu aliased");

  want = Tensor(x);
  ref().leaky_relu(want, want, 0.01f);
  got = Tensor(x);
  b().leaky_relu(got, got, 0.01f);
  expect_matches(want, got, kExact, "leaky_relu aliased");

  want = Tensor(x);
  ref().clamp(want, want, -1.0f, 1.0f);
  got = Tensor(x);
  b().clamp(got, got, -1.0f, 1.0f);
  expect_matches(want, got, kExact, "clamp aliased");
}

// ---- linear algebra (relative bound) ----------------------------------------

TEST_P(BackendSweep, MatmulGrid) {
  Rng rng(13);
  struct Case {
    std::size_t m, k, n;
  };
  for (const Case c : {Case{1, 1, 1}, Case{4, 4, 4}, Case{3, 7, 5},
                       Case{8, 16, 8}, Case{2, 3, 1}, Case{5, 1, 9},
                       Case{16, 33, 17}, Case{6, 130, 11}}) {
    Tensor a(Shape{c.m, c.k}), w(Shape{c.k, c.n});
    fill(a, rng);
    fill(w, rng);
    Tensor want = sentinel(Shape{c.m, c.n}), got = sentinel(Shape{c.m, c.n});
    ref().matmul(want, a, w);
    b().matmul(got, a, w);
    expect_matches(want, got, kMatmulRel, "matmul");
  }
}

TEST_P(BackendSweep, MatmulZeroSkipPreservesNanSemantics) {
  // ref skips exactly-zero LEFT operands (activations) so 0 * Inf never
  // manufactures a NaN; an accelerated backend must not reintroduce
  // those NaNs, and must still propagate Inf/NaN reached through
  // nonzero activations.
  Tensor a(Shape{2, 3}, std::vector<float>{0.0f, 1.0f, 0.0f,  //
                                           2.0f, 0.0f, -3.0f});
  Tensor w(Shape{3, 2},
           std::vector<float>{std::numeric_limits<float>::infinity(), 1.0f,
                              2.0f, std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::infinity(), 3.0f});
  Tensor want = sentinel(Shape{2, 2}), got = sentinel(Shape{2, 2});
  ref().matmul(want, a, w);
  b().matmul(got, a, w);
  expect_matches(want, got, kMatmulRel, "matmul zero-skip");
  // Row 0 reaches the ±Inf weights only through zero activations, so
  // dst[0][0] = 1 * w[1][0] = 2 stays finite; dst[0][1] = NaN flows
  // through the nonzero activation and is checked by expect_matches.
  EXPECT_TRUE(std::isfinite(got.data()[0]));
  // Row 1 reaches ±Inf through nonzero activations: 2*Inf + 3*Inf.
  EXPECT_TRUE(std::isinf(got.data()[2]));
}

TEST_P(BackendSweep, TransposeBitExact) {
  Rng rng(17);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {3, 7}, {8, 8}, {5, 13}}) {
    Tensor a(Shape{m, n});
    fill(a, rng);
    poison(a, rng);
    Tensor want = sentinel(Shape{n, m}), got = sentinel(Shape{n, m});
    ref().transpose2d(want, a);
    b().transpose2d(got, a);
    expect_matches(want, got, kExact, "transpose2d");
  }
}

TEST_P(BackendSweep, LinearGrid) {
  Rng rng(19);
  struct Case {
    std::size_t n, in, out;
  };
  for (const Case c : {Case{1, 8, 4}, Case{3, 17, 5}, Case{8, 64, 10},
                       Case{2, 1, 1}, Case{4, 130, 3}}) {
    Tensor x(Shape{c.n, c.in}), w(Shape{c.out, c.in}), bias(Shape{c.out});
    fill(x, rng);
    fill(w, rng);
    fill(bias, rng);
    Tensor want = sentinel(Shape{c.n, c.out}), got = sentinel(Shape{c.n, c.out});
    ref().linear_forward(want, x, w, bias);
    b().linear_forward(got, x, w, bias);
    expect_matches(want, got, kLinearRel, "linear_forward");
  }
}

// ---- convolution ------------------------------------------------------------

struct ConvCase {
  std::size_t n, ic, h, w, oc, k, stride, padding;
};

const ConvCase kConvGrid[] = {
    {1, 1, 5, 5, 1, 3, 1, 0},   // minimal
    {2, 3, 8, 8, 4, 3, 1, 1},   // batched, padded
    {1, 4, 7, 9, 8, 3, 2, 1},   // strided, non-square
    {3, 2, 6, 6, 5, 1, 1, 0},   // 1x1 kernel (pure GEMM)
    {1, 3, 4, 4, 2, 3, 1, 2},   // padding > stride
    {2, 8, 5, 5, 16, 5, 2, 2},  // kernel == input
    {1, 16, 6, 6, 7, 3, 1, 1},  // col_rows % 4 != 0 tail
};

TEST_P(BackendSweep, Conv2dGrid) {
  Rng rng(23);
  for (const ConvCase& c : kConvGrid) {
    const ops::Conv2dSpec spec{c.stride, c.padding};
    Tensor input(Shape{c.n, c.ic, c.h, c.w});
    Tensor weight(Shape{c.oc, c.ic, c.k, c.k});
    Tensor bias(Shape{c.oc});
    fill(input, rng);
    fill(weight, rng);
    fill(bias, rng);
    const std::size_t oh = ops::conv_out_size(c.h, c.k, c.stride, c.padding);
    const std::size_t ow = ops::conv_out_size(c.w, c.k, c.stride, c.padding);
    const Shape out_shape{c.n, c.oc, oh, ow};
    std::vector<float> scratch(
        ops::conv2d_scratch_floats(input.shape(), weight.shape(), spec));

    Tensor want = sentinel(out_shape), got = sentinel(out_shape);
    ref().conv2d_forward(want, input, weight, bias, spec, scratch);
    b().conv2d_forward(got, input, weight, bias, spec, scratch);
    expect_matches(want, got, kConvRel, "conv2d_forward");

    // Planned path must agree with the spec path of the SAME backend
    // bitwise (identical accumulation order) and stay in tolerance.
    const ops::Conv2dPlan plan =
        ops::make_conv2d_plan(input.shape(), weight.shape(), spec);
    Tensor planned = sentinel(out_shape);
    b().conv2d_planned(planned, input, weight, bias, plan, scratch);
    expect_matches(got, planned, kExact, "conv2d_planned vs conv2d_forward");
  }
}

TEST_P(BackendSweep, Conv2dZeroWeightSkipWithNonFiniteInput) {
  // The corrupted pass routinely feeds Inf/NaN activations into convs.
  // Zero weights must skip them (no 0*Inf NaN manufacture), nonzero
  // weights must propagate them — same as ref, on every backend.
  Rng rng(29);
  const ops::Conv2dSpec spec{1, 1};
  Tensor input(Shape{2, 3, 6, 6});
  Tensor weight(Shape{4, 3, 3, 3});
  Tensor bias(Shape{4});
  fill(input, rng);
  fill(weight, rng);
  fill(bias, rng);
  poison(input, rng);
  // Zero a full output channel and a scattering of taps.
  for (std::size_t i = 0; i < weight.numel(); i += 7) weight.data()[i] = 0.0f;
  for (std::size_t i = 0; i < 27; ++i) weight.data()[i] = 0.0f;

  const Shape out_shape{2, 4, 6, 6};
  std::vector<float> scratch(
      ops::conv2d_scratch_floats(input.shape(), weight.shape(), spec));
  Tensor want = sentinel(out_shape), got = sentinel(out_shape);
  ref().conv2d_forward(want, input, weight, bias, spec, scratch);
  b().conv2d_forward(got, input, weight, bias, spec, scratch);
  expect_matches(want, got, kConvRel, "conv2d zero-skip");
}

// ---- windowed planned conv (fault-cone replay) ------------------------------

TEST_P(BackendSweep, Conv2dWindowMatchesFullPlannedConv) {
  // ops::conv2d_forward_planned_window computes only an output window
  // of the planned conv (DESIGN.md §12): every window element must equal
  // the full conv2d_planned output bit for bit — on this backend and on
  // ref — no element outside it may be written, and
  // ops::conv2d_output_window must cover every output a perturbed input
  // element can change.  Weights hold exact zeros, ±Inf and NaN, and one
  // bias is -0, so the zero-weight skip and the canonical NaN must
  // survive the column subset.
  Backend& previous = active_backend();
  set_active_backend(b());
  Rng rng(71);
  constexpr std::size_t kN = 2, kIc = 3, kOc = 5, kH = 9, kW = 8;
  for (const std::size_t k : {1, 3, 5}) {
    for (const std::size_t stride : {1, 2}) {
      for (const std::size_t padding : {0, 1, 2}) {
        SCOPED_TRACE("k " + std::to_string(k) + " stride " + std::to_string(stride) +
                     " padding " + std::to_string(padding));
        const ops::Conv2dSpec spec{stride, padding};
        Tensor input(Shape{kN, kIc, kH, kW});
        Tensor weight(Shape{kOc, kIc, k, k});
        Tensor bias(Shape{kOc});
        fill(input, rng);
        fill(weight, rng);
        fill(bias, rng);
        weight.data()[0] = 0.0f;
        weight.data()[weight.numel() / 2] = std::numeric_limits<float>::infinity();
        weight.data()[weight.numel() - 1] = -std::numeric_limits<float>::infinity();
        if (weight.numel() > 3 * kIc * k * k) {
          weight.data()[3 * kIc * k * k] = std::numeric_limits<float>::quiet_NaN();
        }
        bias.data()[1] = -0.0f;
        const ops::Conv2dPlan plan =
            ops::make_conv2d_plan(input.shape(), weight.shape(), spec);
        const std::size_t oh = plan.out_height, ow = plan.out_width;
        const Shape out_shape{kN, kOc, oh, ow};
        std::vector<float> scratch(plan.col_rows * plan.col_cols);
        Tensor full = sentinel(out_shape), want = sentinel(out_shape);
        b().conv2d_planned(full, input, weight, bias, plan, scratch);
        ref().conv2d_planned(want, input, weight, bias, plan, scratch);
        expect_matches(want, full, kExact, "conv2d_planned vs ref");

        // Corners, edges, the interior and the whole map.
        std::vector<ops::Rect> windows = {
            {0, 1, 0, 1},           {oh - 1, oh, ow - 1, ow},   {0, 2, ow - 2, ow},
            {oh - 2, oh, 0, 2},     {0, 1, 0, ow},              {0, oh, ow - 1, ow},
            {1, oh - 1, 1, ow - 1}, {oh / 2, oh / 2 + 1, 1, 2}, {0, oh, 0, ow}};
        ops::Conv2dWindowScratch window_scratch;
        for (const ops::Rect& window : windows) {
          if (window.empty() || window.y1 > oh || window.x1 > ow) continue;
          Tensor got = sentinel(out_shape);
          ops::conv2d_forward_planned_window(got, input, weight, bias, plan, window,
                                             window_scratch, scratch);
          for (std::size_t plane = 0; plane < kN * kOc; ++plane) {
            for (std::size_t y = 0; y < oh; ++y) {
              for (std::size_t x = 0; x < ow; ++x) {
                const std::size_t at = (plane * oh + y) * ow + x;
                const bool inside = y >= window.y0 && y < window.y1 && x >= window.x0 &&
                                    x < window.x1;
                const float expected = inside ? full.raw()[at] : -1234.5f;
                ASSERT_EQ(bits::to_bits(got.raw()[at]), bits::to_bits(expected))
                    << "window [" << window.y0 << "," << window.y1 << ")x[" << window.x0
                    << "," << window.x1 << ") at plane " << plane << " (" << y << ","
                    << x << ")" << (inside ? "" : ": written outside the window");
              }
            }
          }
        }

        // The receptive-field rule, from one perturbed input element.
        for (const auto& [y, x] : std::vector<std::pair<std::size_t, std::size_t>>{
                 {0, 0}, {kH - 1, kW - 1}, {0, kW - 1}, {kH / 2, kW / 2}, {1, 2}}) {
          Tensor perturbed = input;
          perturbed.data()[(1 * kIc + 2) * kH * kW + y * kW + x] += 7.0f;
          Tensor changed = sentinel(out_shape);
          b().conv2d_planned(changed, perturbed, weight, bias, plan, scratch);
          const ops::Rect reach = ops::conv2d_output_window(plan, {y, y + 1, x, x + 1});
          for (std::size_t plane = 0; plane < kN * kOc; ++plane) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::size_t at = (plane * oh + oy) * ow + ox;
                if (bits::to_bits(changed.raw()[at]) == bits::to_bits(full.raw()[at])) {
                  continue;
                }
                ASSERT_TRUE(oy >= reach.y0 && oy < reach.y1 && ox >= reach.x0 &&
                            ox < reach.x1)
                    << "input (" << y << "," << x << ") changed output (" << oy << ","
                    << ox << ") outside its window";
              }
            }
          }
        }
      }
    }
  }
  set_active_backend(previous);
}

// ---- GEMM / conv / linear (bit-exact) ---------------------------------------

/// Sprinkles every non-finite and signed-zero kind over about 1 in 32
/// elements: +NaN, -NaN (the sign x86 gives a NaN an invalid operation
/// makes), a NaN with a payload, ±Inf and -0.  Where two different NaNs
/// meet in one add, the hardware's pick depends on the operand order the
/// compiler emitted; only the canonical NaN output hides it.
void poison_all(Tensor& t, Rng& rng) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            bits::from_bits(0xffc00000u),
                            bits::from_bits(0x7fc12345u),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f};
  auto data = t.data();
  const std::size_t count = std::max<std::size_t>(6, data.size() / 32);
  for (std::size_t k = 0; k < count; ++k) {
    const auto at = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * 0.999 *
                                             static_cast<double>(data.size()));
    data[at] = specials[k % std::size(specials)];
  }
}

TEST_P(BackendSweep, GemmConvLinearBitExact) {
  // Each case runs clean, then with inputs and weights poisoned.
  // fill() leaves ~5% exact-zero weights, so both the all-live and the
  // zero-skip paths of the blocked kernels run.  Every NaN these kernels
  // output is the canonical quiet NaN (detail::canonical_nan).
  Rng rng(61);
  std::size_t nan_outputs = 0;
  const auto expect_bits = [&](const Tensor& want, const Tensor& got,
                               const std::string& what) {
    expect_matches(want, got, kExact, what);
    for (const float v : want.data()) {
      if (!std::isnan(v)) continue;
      ++nan_outputs;
      ASSERT_EQ(bits::to_bits(v), 0x7fc00000u) << what << ": NaN not canonical";
    }
  };
  const auto both = [&](Tensor& a, Tensor& b, bool poisoned) {
    fill(a, rng);
    fill(b, rng);
    if (poisoned) {
      poison_all(a, rng);
      poison_all(b, rng);
    }
  };

  struct MatmulCase {
    std::size_t m, k, n;
  };
  for (const MatmulCase c : {MatmulCase{1, 1, 1}, MatmulCase{4, 4, 4},
                             MatmulCase{3, 7, 5}, MatmulCase{8, 16, 8},
                             MatmulCase{2, 3, 1}, MatmulCase{5, 1, 9},
                             MatmulCase{16, 33, 17}, MatmulCase{6, 130, 11},
                             MatmulCase{2, 1024, 37}}) {
    for (const bool poisoned : {false, true}) {
      Tensor a(Shape{c.m, c.k}), w(Shape{c.k, c.n});
      both(a, w, poisoned);
      Tensor want = sentinel(Shape{c.m, c.n}), got = sentinel(Shape{c.m, c.n});
      ref().matmul(want, a, w);
      b().matmul(got, a, w);
      expect_bits(want, got,
                  "matmul " + want.shape().to_string() + " k=" +
                      std::to_string(c.k) + (poisoned ? " poisoned" : ""));
    }
  }

  // Linear: the LinearGrid cases, LeNet's two layers (1024 -> 64 and
  // 64 -> 10), a block-and-tail output count and a rank-3 sequence input.
  for (const Shape& x_shape :
       {Shape{1, 8}, Shape{3, 17}, Shape{8, 64}, Shape{2, 1}, Shape{4, 130},
        Shape{2, 1024}, Shape{3, 64}, Shape{2, 7, 33}}) {
    const std::size_t in = x_shape[x_shape.rank() - 1];
    for (const std::size_t out : {std::size_t{1}, std::size_t{10}, std::size_t{64}}) {
      for (const bool poisoned : {false, true}) {
        Tensor x(x_shape), w(Shape{out, in}), bias(Shape{out});
        both(x, w, poisoned);
        fill(bias, rng);
        if (poisoned) poison_all(bias, rng);
        const Shape out_shape{x.numel() / in, out};
        Tensor want = sentinel(out_shape), got = sentinel(out_shape);
        ref().linear_forward(want, x, w, bias);
        b().linear_forward(got, x, w, bias);
        expect_bits(want, got,
                    "linear_forward x" + x_shape.to_string() + " out=" +
                        std::to_string(out) + (poisoned ? " poisoned" : ""));
      }
    }
  }

  // Conv: the Conv2dGrid cases plus LeNet's second conv (col_rows 150)
  // and two deeper ones (col_rows 144 and 288, odd output-channel count).
  std::vector<ConvCase> cases(std::begin(kConvGrid), std::end(kConvGrid));
  cases.push_back({1, 6, 16, 16, 16, 5, 1, 2});
  cases.push_back({2, 16, 8, 8, 32, 3, 1, 1});
  cases.push_back({1, 32, 6, 6, 9, 3, 1, 1});
  for (const ConvCase& c : cases) {
    for (const bool poisoned : {false, true}) {
      const ops::Conv2dSpec spec{c.stride, c.padding};
      Tensor input(Shape{c.n, c.ic, c.h, c.w});
      Tensor weight(Shape{c.oc, c.ic, c.k, c.k});
      Tensor bias(Shape{c.oc});
      both(input, weight, poisoned);
      fill(bias, rng);
      const std::size_t oh = ops::conv_out_size(c.h, c.k, c.stride, c.padding);
      const std::size_t ow = ops::conv_out_size(c.w, c.k, c.stride, c.padding);
      const Shape out_shape{c.n, c.oc, oh, ow};
      const std::string what = "conv2d in" + input.shape().to_string() + " w" +
                               weight.shape().to_string() +
                               (poisoned ? " poisoned" : "");
      std::vector<float> scratch(
          ops::conv2d_scratch_floats(input.shape(), weight.shape(), spec));

      Tensor want = sentinel(out_shape), got = sentinel(out_shape);
      ref().conv2d_forward(want, input, weight, bias, spec, scratch);
      b().conv2d_forward(got, input, weight, bias, spec, scratch);
      expect_bits(want, got, what + " forward");

      const ops::Conv2dPlan plan =
          ops::make_conv2d_plan(input.shape(), weight.shape(), spec);
      Tensor want_planned = sentinel(out_shape), got_planned = sentinel(out_shape);
      ref().conv2d_planned(want_planned, input, weight, bias, plan, scratch);
      b().conv2d_planned(got_planned, input, weight, bias, plan, scratch);
      expect_bits(want_planned, got_planned, what + " planned");
    }
  }
  EXPECT_GT(nan_outputs, 0u) << "the poisoned cases must reach NaN outputs";
}

TEST_P(BackendSweep, Conv3dBitExact) {
  // No backend accelerates conv3d yet — it inherits the scalar base
  // implementation, so the comparison is bitwise.
  Rng rng(31);
  const ops::Conv3dSpec spec{1, 1};
  Tensor input(Shape{1, 2, 3, 5, 5});
  Tensor weight(Shape{3, 2, 3, 3, 3});
  Tensor bias(Shape{3});
  fill(input, rng);
  fill(weight, rng);
  fill(bias, rng);
  const Shape out_shape{1, 3, 3, 5, 5};
  Tensor want = sentinel(out_shape), got = sentinel(out_shape);
  ref().conv3d_forward(want, input, weight, bias, spec);
  b().conv3d_forward(got, input, weight, bias, spec);
  expect_matches(want, got, kExact, "conv3d_forward");
}

// ---- pooling / normalization / heads (bit-exact) ----------------------------

TEST_P(BackendSweep, PoolingBitExact) {
  Rng rng(37);
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{4, 4},
                             {6, 8}, {5, 5}}) {
    Tensor input(Shape{2, 3, h, w});
    fill(input, rng, 2.0f);
    poison(input, rng);
    const ops::Pool2dSpec spec{2, 2};
    const Shape out_shape{2, 3, h / 2, w / 2};

    Tensor want = sentinel(out_shape), got = sentinel(out_shape);
    std::vector<std::size_t> want_arg(want.numel()), got_arg(got.numel());
    ref().maxpool2d(want, input, spec, want_arg.data());
    b().maxpool2d(got, input, spec, got_arg.data());
    expect_matches(want, got, kExact, "maxpool2d");
    EXPECT_EQ(want_arg, got_arg) << "maxpool2d argmax";

    want = sentinel(out_shape);
    got = sentinel(out_shape);
    ref().avgpool2d(want, input, spec);
    b().avgpool2d(got, input, spec);
    expect_matches(want, got, kExact, "avgpool2d");

    Tensor want_g = sentinel(Shape{2, 3}), got_g = sentinel(Shape{2, 3});
    ref().global_avgpool2d(want_g, input);
    b().global_avgpool2d(got_g, input);
    expect_matches(want_g, got_g, kExact, "global_avgpool2d");
  }
}

TEST_P(BackendSweep, BatchnormAndSoftmaxBitExact) {
  Rng rng(41);
  Tensor input(Shape{2, 4, 5, 5});
  fill(input, rng, 2.0f);
  Tensor gamma(Shape{4}), beta(Shape{4}), mean(Shape{4}), var(Shape{4});
  fill(gamma, rng);
  fill(beta, rng);
  fill(mean, rng);
  for (float& v : var.data()) v = static_cast<float>(rng.uniform(0.1, 2.0));

  Tensor want = sentinel(input.shape()), got = sentinel(input.shape());
  ref().batchnorm2d_eval(want, input, gamma, beta, mean, var, 1e-5f);
  b().batchnorm2d_eval(got, input, gamma, beta, mean, var, 1e-5f);
  expect_matches(want, got, kExact, "batchnorm2d_eval");

  Tensor logits(Shape{3, 10});
  fill(logits, rng, 5.0f);
  Tensor want_s = sentinel(logits.shape()), got_s = sentinel(logits.shape());
  ref().softmax_rows(want_s, logits);
  b().softmax_rows(got_s, logits);
  expect_matches(want_s, got_s, kExact, "softmax_rows");

  want_s = sentinel(logits.shape());
  got_s = sentinel(logits.shape());
  ref().log_softmax_rows(want_s, logits);
  b().log_softmax_rows(got_s, logits);
  expect_matches(want_s, got_s, kExact, "log_softmax_rows");
}

// ---- transformer ops (bit-exact) --------------------------------------------

TEST_P(BackendSweep, GeluLayernormSoftmaxHeadsBitExact) {
  // Transformer ops are scalar-reference-only by contract (backends
  // inherit the base kernels), so the comparison is bitwise — a backend
  // overriding one of these must reproduce the oracle exactly.
  Rng rng(43);
  for (const Shape& shape : {Shape{1, 4}, Shape{3, 17}, Shape{2, 5, 8},
                             Shape{2, 4, 6, 6}}) {
    for (const bool poisoned : {false, true}) {
      Tensor x(shape);
      fill(x, rng, 3.0f);
      if (poisoned) poison(x, rng);

      Tensor want = sentinel(shape), got = sentinel(shape);
      ref().gelu(want, x);
      b().gelu(got, x);
      expect_matches(want, got, kExact, "gelu");

      want = sentinel(shape);
      got = sentinel(shape);
      ref().softmax_over_heads(want, x);
      b().softmax_over_heads(got, x);
      expect_matches(want, got, kExact, "softmax_over_heads");

      const std::size_t features = shape[shape.rank() - 1];
      Tensor gamma(Shape{features}), beta(Shape{features});
      fill(gamma, rng);
      fill(beta, rng);
      want = sentinel(shape);
      got = sentinel(shape);
      ref().layernorm(want, x, gamma, beta, 1e-5f);
      b().layernorm(got, x, gamma, beta, 1e-5f);
      expect_matches(want, got, kExact, "layernorm");
    }
  }
}

TEST_P(BackendSweep, TransformerOpAliasSafety) {
  // The workspace path runs gelu/layernorm/softmax in place over an
  // arena slot (dst aliases input) — kernels must tolerate it.
  Rng rng(47);
  Tensor x(Shape{2, 4, 5, 5});
  fill(x, rng, 2.0f);
  poison(x, rng);

  Tensor want = sentinel(x.shape());
  ref().gelu(want, x);
  Tensor got = Tensor(x);
  b().gelu(got, got);
  expect_matches(want, got, kExact, "gelu aliased");

  want = sentinel(x.shape());
  ref().softmax_over_heads(want, x);
  got = Tensor(x);
  b().softmax_over_heads(got, got);
  expect_matches(want, got, kExact, "softmax_over_heads aliased");

  Tensor gamma(Shape{5}), beta(Shape{5});
  fill(gamma, rng);
  fill(beta, rng);
  want = sentinel(x.shape());
  ref().layernorm(want, x, gamma, beta, 1e-5f);
  got = Tensor(x);
  b().layernorm(got, got, gamma, beta, 1e-5f);
  expect_matches(want, got, kExact, "layernorm aliased");
}

TEST_P(BackendSweep, AttentionScoresAndContextBitExact) {
  Rng rng(53);
  struct Case {
    std::size_t n, t, heads, dh;
  };
  for (const Case c : {Case{1, 2, 1, 4}, Case{2, 5, 2, 3}, Case{1, 16, 4, 8},
                       Case{3, 7, 7, 1}}) {
    const std::size_t e = c.heads * c.dh;
    Tensor q(Shape{c.n, c.t, e}), k(Shape{c.n, c.t, e}), v(Shape{c.n, c.t, e});
    fill(q, rng);
    fill(k, rng);
    fill(v, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.dh));
    const Shape score_shape{c.n, c.heads, c.t, c.t};

    Tensor want = sentinel(score_shape), got = sentinel(score_shape);
    ref().attention_scores(want, q, k, c.heads, scale);
    b().attention_scores(got, q, k, c.heads, scale);
    expect_matches(want, got, kExact, "attention_scores");

    Tensor probs = sentinel(score_shape);
    ref().softmax_over_heads(probs, want);
    Tensor want_ctx = sentinel(q.shape()), got_ctx = sentinel(q.shape());
    ref().attention_context(want_ctx, probs, v, c.heads);
    b().attention_context(got_ctx, probs, v, c.heads);
    expect_matches(want_ctx, got_ctx, kExact, "attention_context");
  }
}

TEST_P(BackendSweep, AttentionScoresPropagateNonFinite) {
  // A corrupted Q/K projection output feeds Inf/NaN into the score
  // kernel; the double accumulator must propagate, not launder, them.
  Rng rng(59);
  Tensor q(Shape{1, 3, 4}), k(Shape{1, 3, 4}), v(Shape{1, 3, 4});
  fill(q, rng);
  fill(k, rng);
  fill(v, rng);
  q.data()[1] = std::numeric_limits<float>::quiet_NaN();
  k.data()[5] = std::numeric_limits<float>::infinity();
  const Shape score_shape{1, 2, 3, 3};

  Tensor want = sentinel(score_shape), got = sentinel(score_shape);
  ref().attention_scores(want, q, k, 2, 0.5f);
  b().attention_scores(got, q, k, 2, 0.5f);
  expect_matches(want, got, kExact, "attention_scores poisoned");
  EXPECT_TRUE(want.has_nan());

  Tensor probs = sentinel(score_shape);
  ref().softmax_over_heads(probs, want);
  Tensor want_ctx = sentinel(q.shape()), got_ctx = sentinel(q.shape());
  ref().attention_context(want_ctx, probs, v, 2);
  b().attention_context(got_ctx, probs, v, 2);
  expect_matches(want_ctx, got_ctx, kExact, "attention_context poisoned");
}

INSTANTIATE_TEST_SUITE_P(
    Registered, BackendSweep, ::testing::ValuesIn(registered_backends()),
    [](const ::testing::TestParamInfo<Backend*>& info) {
      return std::string(info.param->name());
    });

// ---- registry / resolution --------------------------------------------------

TEST(BackendRegistry, RefIsAlwaysFirst) {
  const auto& backends = registered_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends[0]->name(), "ref");
  EXPECT_EQ(backends[0], &ref_backend());
}

TEST(BackendRegistry, FindByName) {
  EXPECT_EQ(find_backend("ref"), &ref_backend());
  EXPECT_EQ(find_backend("no-such-backend"), nullptr);
}

TEST(BackendRegistry, KnownNames) {
  EXPECT_TRUE(is_known_backend_name(""));
  EXPECT_TRUE(is_known_backend_name("ref"));
  EXPECT_TRUE(is_known_backend_name("avx2"));
  EXPECT_TRUE(is_known_backend_name("auto"));
  EXPECT_FALSE(is_known_backend_name("neon"));
}

TEST(BackendRegistry, ResolveRefAndAuto) {
  EXPECT_EQ(&resolve_backend(""), &ref_backend());
  EXPECT_EQ(&resolve_backend("ref"), &ref_backend());
  // "auto" picks the last (most accelerated) registered backend and
  // never throws.
  Backend& resolved = resolve_backend("auto");
  EXPECT_NE(find_backend(resolved.name()), nullptr);
  if (find_backend("avx2") != nullptr) {
    EXPECT_STREQ(resolved.name(), "avx2");
  } else {
    EXPECT_EQ(&resolved, &ref_backend());
  }
}

TEST(BackendRegistry, ResolveUnknownThrows) {
  EXPECT_THROW(resolve_backend("neon"), ConfigError);
}

TEST(BackendRegistry, ResolveUnavailableThrows) {
  if (find_backend("avx2") != nullptr) {
    EXPECT_EQ(&resolve_backend("avx2"), find_backend("avx2"));
  } else {
    EXPECT_THROW(resolve_backend("avx2"), ConfigError);
  }
}

TEST(BackendRegistry, ActiveDefaultsToRef) {
  EXPECT_EQ(&active_backend(), &ref_backend());
  // Switching and restoring works (the sweep tests above call kernels
  // directly and never touch the active pointer).
  if (Backend* avx2 = find_backend("avx2")) {
    set_active_backend(*avx2);
    EXPECT_EQ(&active_backend(), avx2);
    set_active_backend(ref_backend());
  }
  EXPECT_EQ(&active_backend(), &ref_backend());
}

}  // namespace
}  // namespace alfi::tensor
