// AVX2 backend ("avx2").  Compiled with -mavx2 only when the toolchain
// supports that flag (see src/tensor/CMakeLists.txt); the registry
// additionally gates on cpu_supports_avx2() at runtime, so no AVX
// instruction executes on a CPU without avx2.
//
// Contract vs the "ref" oracle (DESIGN.md §13): every override is
// BIT-EXACT, NaN payloads and signed zeros included, so a campaign's
// outputs do not depend on the backend.
//   * activations (relu / leaky_relu / clamp) use compare+blend, never a
//     NaN-normalizing min/max, and the only arithmetic (leaky slope
//     multiply) is the same single hardware multiply ref performs;
//   * GEMM/conv kernels keep ref's zero-weight skip structure (a faulted
//     weight can be exactly zero, and 0 * Inf would manufacture a NaN ref
//     never sees) and compute each step o + w * c as a separate multiply
//     then add, with each output element summing its terms in ref's
//     order; 8 lanes hold 8 independent outputs;
//   * conv2d_planned gathers its im2col columns 8 lanes at a time
//     (masked AVX2 gathers: a copy, so exact);
//   * linear_forward keeps one output per double lane: each lane starts
//     from the bias and adds the exact float->double products over IN in
//     order, as ref does;
//   * like ref, these accumulating kernels output every NaN as the
//     canonical quiet NaN (detail::canonical_nan), so which NaN operand
//     an add propagated — an accident of the compiler's operand order —
//     never shows;
//   * everything else inherits the scalar reference implementation.
// The library is built with -ffp-contract=off, so the compiler cannot
// fuse a multiply and an add back into one FMA (which would round once
// instead of twice) in these kernels or in ref's.
#include "tensor/backend.h"

#if defined(ALFI_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace alfi::tensor {

namespace {

/// o + w * c as a multiply then an add, rounding twice like ref's
/// scalar step (the compiler may commute either operation; that changes
/// at most which NaN propagates, and the kernels canonicalize NaNs).
inline __m256 mul_add(__m256 o, __m256 w, __m256 c) {
  return _mm256_add_ps(o, _mm256_mul_ps(w, c));
}

/// detail::canonicalize_nans, 8 lanes at a time.
void canonicalize_nans8(float* data, std::size_t n) {
  const __m256 qnan = _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    _mm256_storeu_ps(data + i,
                     _mm256_blendv_ps(v, qnan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q)));
  }
  detail::canonicalize_nans(data + i, n - i);
}

/// The planned im2col: col[j] = src[idx[j]], or 0 where idx[j] < 0
/// (padding), 8 lanes per masked gather.  Copies bits, so it is exact.
void gather_cols(float* __restrict col, const float* __restrict src,
                 const std::int32_t* __restrict idx, std::size_t count) {
  const __m256i none = _mm256_set1_epi32(-1);
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j));
    const __m256 live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, none));
    _mm256_storeu_ps(col + j,
                     _mm256_mask_i32gather_ps(_mm256_setzero_ps(), src, k, live, 4));
  }
  for (; j < count; ++j) {
    const std::int32_t k = idx[j];
    col[j] = k < 0 ? 0.0f : src[static_cast<std::size_t>(k)];
  }
}

/// orow[c] += wv * crow[c] over col_cols elements (8 lanes + scalar tail).
inline void accum_row(float* __restrict orow, float wv,
                      const float* __restrict crow, std::size_t col_cols) {
  const __m256 w8 = _mm256_set1_ps(wv);
  std::size_t c = 0;
  for (; c + 8 <= col_cols; c += 8) {
    const __m256 o = _mm256_loadu_ps(orow + c);
    _mm256_storeu_ps(orow + c, mul_add(o, w8, _mm256_loadu_ps(crow + c)));
  }
  for (; c < col_cols; ++c) orow[c] += wv * crow[c];
}

/// Blocked GEMM out[oc, col_cols] = weight[oc, col_rows] @ col + bias,
/// with ref's zero-weight skip semantics and summation order (the
/// blocking of ref's conv2d_planned): a block whose four weights are all
/// live adds its four terms in one sweep, otherwise each live row
/// accumulates on its own and zero rows contribute nothing.
void conv_gemm(float* __restrict out_base, const float* __restrict weight,
               const float* __restrict bias, const float* __restrict col,
               std::size_t oc, std::size_t col_rows, std::size_t col_cols) {
  const auto rblock_single = [&](float* __restrict orow, const float* wrow,
                                 std::size_t r) {
    const float w0 = wrow[r], w1 = wrow[r + 1], w2 = wrow[r + 2], w3 = wrow[r + 3];
    const float* __restrict c0 = col + r * col_cols;
    const float* __restrict c1 = c0 + col_cols;
    const float* __restrict c2 = c1 + col_cols;
    const float* __restrict c3 = c2 + col_cols;
    if (w0 != 0.0f && w1 != 0.0f && w2 != 0.0f && w3 != 0.0f) {
      const __m256 w08 = _mm256_set1_ps(w0), w18 = _mm256_set1_ps(w1),
                   w28 = _mm256_set1_ps(w2), w38 = _mm256_set1_ps(w3);
      std::size_t c = 0;
      for (; c + 8 <= col_cols; c += 8) {
        __m256 o = _mm256_loadu_ps(orow + c);
        o = mul_add(o, w08, _mm256_loadu_ps(c0 + c));
        o = mul_add(o, w18, _mm256_loadu_ps(c1 + c));
        o = mul_add(o, w28, _mm256_loadu_ps(c2 + c));
        o = mul_add(o, w38, _mm256_loadu_ps(c3 + c));
        _mm256_storeu_ps(orow + c, o);
      }
      for (; c < col_cols; ++c) {
        orow[c] = orow[c] + w0 * c0[c] + w1 * c1[c] + w2 * c2[c] + w3 * c3[c];
      }
    } else {
      for (std::size_t k = r; k < r + 4; ++k) {
        const float wv = wrow[k];
        if (wv == 0.0f) continue;
        accum_row(orow, wv, col + k * col_cols, col_cols);
      }
    }
  };
  const auto rtail_single = [&](float* __restrict orow, const float* wrow,
                                std::size_t r) {
    for (; r < col_rows; ++r) {
      const float wv = wrow[r];
      if (wv == 0.0f) continue;
      accum_row(orow, wv, col + r * col_cols, col_cols);
    }
  };

  std::size_t o = 0;
  for (; o + 2 <= oc; o += 2) {
    float* __restrict o0 = out_base + o * col_cols;
    float* __restrict o1 = o0 + col_cols;
    std::fill(o0, o0 + col_cols, bias[o]);
    std::fill(o1, o1 + col_cols, bias[o + 1]);
    const float* w0row = weight + o * col_rows;
    const float* w1row = w0row + col_rows;
    std::size_t r = 0;
    for (; r + 4 <= col_rows; r += 4) {
      const float a0 = w0row[r], a1 = w0row[r + 1], a2 = w0row[r + 2],
                  a3 = w0row[r + 3];
      const float b0 = w1row[r], b1 = w1row[r + 1], b2 = w1row[r + 2],
                  b3 = w1row[r + 3];
      const bool all_live = a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f &&
                            b0 != 0.0f && b1 != 0.0f && b2 != 0.0f && b3 != 0.0f;
      if (all_live) {
        const float* __restrict c0 = col + r * col_cols;
        const float* __restrict c1 = c0 + col_cols;
        const float* __restrict c2 = c1 + col_cols;
        const float* __restrict c3 = c2 + col_cols;
        const __m256 a08 = _mm256_set1_ps(a0), a18 = _mm256_set1_ps(a1),
                     a28 = _mm256_set1_ps(a2), a38 = _mm256_set1_ps(a3);
        const __m256 b08 = _mm256_set1_ps(b0), b18 = _mm256_set1_ps(b1),
                     b28 = _mm256_set1_ps(b2), b38 = _mm256_set1_ps(b3);
        std::size_t c = 0;
        for (; c + 8 <= col_cols; c += 8) {
          const __m256 v0 = _mm256_loadu_ps(c0 + c);
          const __m256 v1 = _mm256_loadu_ps(c1 + c);
          const __m256 v2 = _mm256_loadu_ps(c2 + c);
          const __m256 v3 = _mm256_loadu_ps(c3 + c);
          __m256 acc0 = _mm256_loadu_ps(o0 + c);
          __m256 acc1 = _mm256_loadu_ps(o1 + c);
          acc0 = mul_add(acc0, a08, v0);
          acc0 = mul_add(acc0, a18, v1);
          acc0 = mul_add(acc0, a28, v2);
          acc0 = mul_add(acc0, a38, v3);
          acc1 = mul_add(acc1, b08, v0);
          acc1 = mul_add(acc1, b18, v1);
          acc1 = mul_add(acc1, b28, v2);
          acc1 = mul_add(acc1, b38, v3);
          _mm256_storeu_ps(o0 + c, acc0);
          _mm256_storeu_ps(o1 + c, acc1);
        }
        for (; c < col_cols; ++c) {
          o0[c] = o0[c] + a0 * c0[c] + a1 * c1[c] + a2 * c2[c] + a3 * c3[c];
          o1[c] = o1[c] + b0 * c0[c] + b1 * c1[c] + b2 * c2[c] + b3 * c3[c];
        }
      } else {
        rblock_single(o0, w0row, r);
        rblock_single(o1, w1row, r);
      }
    }
    rtail_single(o0, w0row, r);
    rtail_single(o1, w1row, r);
  }
  for (; o < oc; ++o) {
    float* __restrict orow = out_base + o * col_cols;
    std::fill(orow, orow + col_cols, bias[o]);
    const float* wrow = weight + o * col_rows;
    std::size_t r = 0;
    for (; r + 4 <= col_rows; r += 4) rblock_single(orow, wrow, r);
    rtail_single(orow, wrow, r);
  }
  canonicalize_nans8(out_base, oc * col_cols);
}

/// y[0, 4 * kChains) = bias + W x for 4 * kChains consecutive weight rows
/// of length `in`, one output per double lane.  Each lane starts from its
/// bias and adds w[i] * x[i] for i = 0, 1, ... in order, as ref's scalar
/// loop does: a float->double product is exact, so the separate multiply
/// and add round exactly where ref's do.  Four input steps at a time,
/// a 4x4 transpose turns four weight rows into four lane vectors.
template <std::size_t kChains>
void linear_block(float* __restrict y, const float* __restrict w,
                  const float* __restrict bias, const float* __restrict x,
                  std::size_t in) {
  const auto step = [](__m256d acc, __m128 w4, __m256d xv) {
    return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(w4), xv));
  };
  const auto broadcast = [](float v) { return _mm256_set1_pd(static_cast<double>(v)); };
  __m256d acc[kChains];
  for (std::size_t c = 0; c < kChains; ++c) {
    acc[c] = _mm256_cvtps_pd(_mm_loadu_ps(bias + 4 * c));
  }
  std::size_t i = 0;
  for (; i + 4 <= in; i += 4) {
    const __m256d x0 = broadcast(x[i]), x1 = broadcast(x[i + 1]),
                  x2 = broadcast(x[i + 2]), x3 = broadcast(x[i + 3]);
    for (std::size_t c = 0; c < kChains; ++c) {
      const float* wc = w + 4 * c * in + i;
      __m128 r0 = _mm_loadu_ps(wc);
      __m128 r1 = _mm_loadu_ps(wc + in);
      __m128 r2 = _mm_loadu_ps(wc + 2 * in);
      __m128 r3 = _mm_loadu_ps(wc + 3 * in);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);  // r_k = the four rows' w[i + k]
      acc[c] = step(acc[c], r0, x0);
      acc[c] = step(acc[c], r1, x1);
      acc[c] = step(acc[c], r2, x2);
      acc[c] = step(acc[c], r3, x3);
    }
  }
  for (; i < in; ++i) {
    const __m256d xi = broadcast(x[i]);
    for (std::size_t c = 0; c < kChains; ++c) {
      const float* wc = w + 4 * c * in + i;
      acc[c] = step(acc[c], _mm_setr_ps(wc[0], wc[in], wc[2 * in], wc[3 * in]), xi);
    }
  }
  for (std::size_t c = 0; c < kChains; ++c) {
    _mm_storeu_ps(y + 4 * c, _mm256_cvtpd_ps(acc[c]));
  }
}

class Avx2Backend final : public Backend {
 public:
  const char* name() const override { return "avx2"; }

  // ---- activations: bit-exact with ref (compare + blend, no min/max) -------

  void relu(Tensor& dst, const Tensor& input) const override {
    ALFI_CHECK(dst.numel() == input.numel(), "relu_into: destination element count mismatch");
    const float* src = input.raw();
    float* out = dst.raw();
    const std::size_t n = input.numel();
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      // keep = (v > 0) || isnan(v): matches ref's NaN propagation.
      const __m256 keep = _mm256_cmp_ps(v, zero, _CMP_NLE_UQ);
      _mm256_storeu_ps(out + i, _mm256_blendv_ps(zero, v, keep));
    }
    for (; i < n; ++i) {
      const float v = src[i];
      out[i] = v > 0.0f ? v : (std::isnan(v) ? v : 0.0f);
    }
  }

  void leaky_relu(Tensor& dst, const Tensor& input,
                  float negative_slope) const override {
    ALFI_CHECK(dst.numel() == input.numel(),
               "leaky_relu_into: destination element count mismatch");
    const float* src = input.raw();
    float* out = dst.raw();
    const std::size_t n = input.numel();
    const __m256 zero = _mm256_setzero_ps();
    const __m256 slope = _mm256_set1_ps(negative_slope);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      const __m256 pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
      // NaN lanes fall through to v * slope — the same single hardware
      // multiply ref performs, so the quieted payload matches bit-exact.
      _mm256_storeu_ps(out + i, _mm256_blendv_ps(_mm256_mul_ps(v, slope), v, pos));
    }
    for (; i < n; ++i) {
      const float v = src[i];
      out[i] = v > 0.0f ? v : v * negative_slope;
    }
  }

  void clamp(Tensor& dst, const Tensor& input, float lo, float hi) const override {
    ALFI_CHECK(lo <= hi, "clamp bounds inverted");
    ALFI_CHECK(dst.numel() == input.numel(), "clamp_into: destination element count mismatch");
    const float* src = input.raw();
    float* out = dst.raw();
    const std::size_t n = input.numel();
    const __m256 lo8 = _mm256_set1_ps(lo);
    const __m256 hi8 = _mm256_set1_ps(hi);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      // Exact std::min(std::max(v, lo), hi) semantics via compares
      // (vmaxps/vminps would normalize -0.0 vs +0.0 differently), then
      // ref's explicit NaN -> lo mapping.
      const __m256 below = _mm256_cmp_ps(v, lo8, _CMP_LT_OQ);
      __m256 r = _mm256_blendv_ps(v, lo8, below);
      const __m256 above = _mm256_cmp_ps(hi8, r, _CMP_LT_OQ);
      r = _mm256_blendv_ps(r, hi8, above);
      const __m256 nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
      _mm256_storeu_ps(out + i, _mm256_blendv_ps(r, lo8, nan));
    }
    for (; i < n; ++i) {
      const float v = src[i];
      out[i] = std::isnan(v) ? lo : std::min(std::max(v, lo), hi);
    }
  }

  // ---- GEMM ----------------------------------------------------------------

  void matmul(Tensor& dst, const Tensor& a, const Tensor& b) const override {
    ALFI_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
    const std::size_t m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
    ALFI_CHECK(k == k2, "matmul inner dimensions differ: " + a.shape().to_string() +
                            " vs " + b.shape().to_string());
    ALFI_CHECK(dst.numel() == m * n, "matmul_into: destination element count mismatch");
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* po = dst.raw();
    std::fill(po, po + m * n, 0.0f);
    for (std::size_t i = 0; i < m; ++i) {
      float* orow = po + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = pa[i * k + kk];
        if (av == 0.0f) continue;
        accum_row(orow, av, pb + kk * n, n);
      }
    }
    canonicalize_nans8(po, m * n);
  }

  void linear_forward(Tensor& dst, const Tensor& input, const Tensor& weight,
                      const Tensor& bias) const override {
    // Same rank contract as the ref kernel: [..., IN], leading axes as rows.
    ALFI_CHECK(input.rank() >= 2, "linear input must be [..., IN]");
    ALFI_CHECK(weight.rank() == 2, "linear weight must be [OUT, IN]");
    const std::size_t in = input.dim(input.rank() - 1);
    const std::size_t n = input.numel() / in;
    const std::size_t out_features = weight.dim(0);
    ALFI_CHECK(weight.dim(1) == in, "linear weight IN mismatch");
    ALFI_CHECK(bias.rank() == 1 && bias.dim(0) == out_features, "linear bias mismatch");
    ALFI_CHECK(dst.numel() == n * out_features,
               "linear_forward_into: destination element count mismatch");
    // Blocks of 16 outputs (four independent lane chains), then 4, then
    // ref's scalar loop for the last out_features % 4.
    const float* w = weight.raw();
    const float* b = bias.raw();
    for (std::size_t row = 0; row < n; ++row) {
      const float* x = input.raw() + row * in;
      float* y = dst.raw() + row * out_features;
      std::size_t o = 0;
      for (; o + 16 <= out_features; o += 16) {
        linear_block<4>(y + o, w + o * in, b + o, x, in);
      }
      for (; o + 4 <= out_features; o += 4) {
        linear_block<1>(y + o, w + o * in, b + o, x, in);
      }
      for (; o < out_features; ++o) {
        const float* wrow = w + o * in;
        double acc = b[o];
        for (std::size_t i = 0; i < in; ++i) acc += static_cast<double>(wrow[i]) * x[i];
        y[o] = static_cast<float>(acc);
      }
      canonicalize_nans8(y, out_features);
    }
  }

  // ---- convolution (shared blocked GEMM) -----------------------------------

  void conv2d_forward(Tensor& dst, const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ops::Conv2dSpec& spec,
                      std::span<float> col_scratch) const override {
    ALFI_CHECK(input.rank() == 4, "conv2d input must be [N,C,H,W]");
    ALFI_CHECK(weight.rank() == 4, "conv2d weight must be [OC,IC,KH,KW]");
    const std::size_t n = input.dim(0), ic = input.dim(1), h = input.dim(2),
                      w = input.dim(3);
    const std::size_t oc = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
    ALFI_CHECK(weight.dim(1) == ic, "conv2d channel mismatch");
    ALFI_CHECK(bias.rank() == 1 && bias.dim(0) == oc, "conv2d bias mismatch");
    const std::size_t oh = ops::conv_out_size(h, kh, spec.stride, spec.padding);
    const std::size_t ow = ops::conv_out_size(w, kw, spec.stride, spec.padding);
    ALFI_CHECK(dst.numel() == n * oc * oh * ow,
               "conv2d_forward_into: destination element count mismatch");
    const std::size_t col_rows = ic * kh * kw;
    const std::size_t col_cols = oh * ow;
    ALFI_CHECK(col_scratch.size() >= col_rows * col_cols,
               "conv2d col scratch too small");
    float* col = col_scratch.data();
    for (std::size_t sample = 0; sample < n; ++sample) {
      detail::im2col(input.raw() + sample * ic * h * w, ic, h, w, kh, kw,
                     spec.stride, spec.padding, oh, ow, col);
      conv_gemm(dst.raw() + sample * oc * col_cols, weight.raw(), bias.raw(), col,
                oc, col_rows, col_cols);
    }
  }

  void conv2d_planned(Tensor& dst, const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ops::Conv2dPlan& plan,
                      std::span<float> col_scratch) const override {
    ALFI_CHECK(plan.matches(input.shape()), "conv2d plan/input shape mismatch");
    const std::size_t n = input.dim(0), ic = input.dim(1), h = input.dim(2),
                      w = input.dim(3);
    const std::size_t oc = weight.dim(0);
    const std::size_t col_rows = plan.col_rows;
    const std::size_t col_cols = plan.col_cols;
    ALFI_CHECK(dst.numel() == n * oc * col_cols,
               "conv2d_forward_planned: destination element count mismatch");
    ALFI_CHECK(col_scratch.size() >= col_rows * col_cols,
               "conv2d col scratch too small");
    float* __restrict col = col_scratch.data();
    const std::int32_t* __restrict idx = plan.col_index.data();
    for (std::size_t sample = 0; sample < n; ++sample) {
      gather_cols(col, input.raw() + sample * ic * h * w, idx, col_rows * col_cols);
      conv_gemm(dst.raw() + sample * oc * col_cols, weight.raw(), bias.raw(), col,
                oc, col_rows, col_cols);
    }
  }
};

}  // namespace

namespace detail {

Backend& avx2_backend_instance() {
  static Avx2Backend backend;
  return backend;
}

}  // namespace detail

}  // namespace alfi::tensor

#endif  // ALFI_HAVE_AVX2
