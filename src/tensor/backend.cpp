#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

namespace alfi::tensor {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ALFI_CHECK(a.shape() == b.shape(), std::string(op) + ": shape mismatch " +
                                         a.shape().to_string() + " vs " +
                                         b.shape().to_string());
}

// Steady-state kernel calls must not allocate, so destination shapes
// are validated by element count instead of by constructing an expected
// Shape (Shape construction heap-allocates its dims vector).
void check_dst_numel(const Tensor& dst, std::size_t numel, const char* op) {
  ALFI_CHECK(dst.numel() == numel,
             std::string(op) + ": destination element count mismatch");
}

}  // namespace

// ---- elementwise -----------------------------------------------------------

void Backend::add(Tensor& dst, const Tensor& a, const Tensor& b) const {
  check_same_shape(a, b, "add");
  check_dst_numel(dst, a.numel(), "add_into");
  for (std::size_t i = 0; i < a.numel(); ++i) dst.raw()[i] = a.raw()[i] + b.raw()[i];
}

void Backend::sub(Tensor& dst, const Tensor& a, const Tensor& b) const {
  check_same_shape(a, b, "sub");
  check_dst_numel(dst, a.numel(), "sub_into");
  for (std::size_t i = 0; i < a.numel(); ++i) dst.raw()[i] = a.raw()[i] - b.raw()[i];
}

void Backend::mul(Tensor& dst, const Tensor& a, const Tensor& b) const {
  check_same_shape(a, b, "mul");
  check_dst_numel(dst, a.numel(), "mul_into");
  for (std::size_t i = 0; i < a.numel(); ++i) dst.raw()[i] = a.raw()[i] * b.raw()[i];
}

void Backend::scale(Tensor& dst, const Tensor& a, float factor) const {
  check_dst_numel(dst, a.numel(), "scale_into");
  for (std::size_t i = 0; i < a.numel(); ++i) dst.raw()[i] = a.raw()[i] * factor;
}

void Backend::add_inplace(Tensor& a, const Tensor& b) const {
  check_same_shape(a, b, "add_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a.raw()[i] += b.raw()[i];
}

void Backend::axpy_inplace(Tensor& a, float factor, const Tensor& b) const {
  check_same_shape(a, b, "axpy_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a.raw()[i] += factor * b.raw()[i];
}

// ---- linear algebra --------------------------------------------------------

void Backend::matmul(Tensor& dst, const Tensor& a, const Tensor& b) const {
  ALFI_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  const std::size_t m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
  ALFI_CHECK(k == k2, "matmul inner dimensions differ: " + a.shape().to_string() +
                          " vs " + b.shape().to_string());
  check_dst_numel(dst, m * n, "matmul_into");
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = dst.raw();
  std::fill(po, po + m * n, 0.0f);
  // i-k-j loop order: streams through b and out rows, cache-friendly.
  for (std::size_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  detail::canonicalize_nans(po, m * n);
}

void Backend::transpose2d(Tensor& dst, const Tensor& a) const {
  ALFI_CHECK(a.rank() == 2, "transpose2d expects rank-2 tensor");
  const std::size_t m = a.dim(0), n = a.dim(1);
  check_dst_numel(dst, m * n, "transpose2d_into");
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dst.raw()[j * m + i] = a.raw()[i * n + j];
    }
  }
}

void Backend::linear_forward(Tensor& dst, const Tensor& input, const Tensor& weight,
                             const Tensor& bias) const {
  // Accepts [N, IN] and any higher-rank [..., IN] (e.g. the sequence
  // layout [N, T, IN]); leading axes are treated as rows.  The rank-2
  // path is byte-for-byte the historical kernel.
  ALFI_CHECK(input.rank() >= 2, "linear input must be [..., IN]");
  ALFI_CHECK(weight.rank() == 2, "linear weight must be [OUT, IN]");
  const std::size_t in = input.dim(input.rank() - 1);
  const std::size_t n = input.numel() / in;
  const std::size_t out_features = weight.dim(0);
  ALFI_CHECK(weight.dim(1) == in, "linear weight IN mismatch");
  ALFI_CHECK(bias.rank() == 1 && bias.dim(0) == out_features, "linear bias mismatch");
  check_dst_numel(dst, n * out_features, "linear_forward_into");
  for (std::size_t row = 0; row < n; ++row) {
    const float* x = input.raw() + row * in;
    float* y = dst.raw() + row * out_features;
    for (std::size_t o = 0; o < out_features; ++o) {
      const float* w = weight.raw() + o * in;
      double acc = bias.raw()[o];
      for (std::size_t i = 0; i < in; ++i) acc += static_cast<double>(w[i]) * x[i];
      y[o] = detail::canonical_nan(static_cast<float>(acc));
    }
  }
}

// ---- convolution -----------------------------------------------------------

namespace detail {

void canonicalize_nans(float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) data[i] = canonical_nan(data[i]);
}

/// Lowers one sample [C,H,W] to a column matrix [C*KH*KW, OH*OW].
void im2col(const float* input, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t padding, std::size_t oh, std::size_t ow, float* col) {
  const std::size_t plane = height * width;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        float* dst = col + ((c * kh + ky) * kw + kx) * (oh * ow);
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(y * stride + ky) -
              static_cast<std::ptrdiff_t>(padding);
          if (in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(height)) {
            std::fill(dst + y * ow, dst + (y + 1) * ow, 0.0f);
            continue;
          }
          const float* src_row =
              input + c * plane + static_cast<std::size_t>(in_y) * width;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(x * stride + kx) -
                static_cast<std::ptrdiff_t>(padding);
            dst[y * ow + x] =
                (in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(width))
                    ? 0.0f
                    : src_row[static_cast<std::size_t>(in_x)];
          }
        }
      }
    }
  }
}

/// Inverse of im2col: accumulates columns back into the input gradient.
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t padding, std::size_t oh, std::size_t ow, float* input_grad) {
  const std::size_t plane = height * width;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        const float* src = col + ((c * kh + ky) * kw + kx) * (oh * ow);
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(y * stride + ky) -
              static_cast<std::ptrdiff_t>(padding);
          if (in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(height)) continue;
          float* dst_row =
              input_grad + c * plane + static_cast<std::size_t>(in_y) * width;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(x * stride + kx) -
                static_cast<std::ptrdiff_t>(padding);
            if (in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(width)) continue;
            dst_row[static_cast<std::size_t>(in_x)] += src[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace detail

void Backend::conv2d_forward(Tensor& dst, const Tensor& input, const Tensor& weight,
                             const Tensor& bias, const ops::Conv2dSpec& spec,
                             std::span<float> col_scratch) const {
  ALFI_CHECK(input.rank() == 4, "conv2d input must be [N,C,H,W]");
  ALFI_CHECK(weight.rank() == 4, "conv2d weight must be [OC,IC,KH,KW]");
  const std::size_t n = input.dim(0), ic = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oc = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  ALFI_CHECK(weight.dim(1) == ic, "conv2d channel mismatch");
  ALFI_CHECK(bias.rank() == 1 && bias.dim(0) == oc, "conv2d bias mismatch");
  const std::size_t oh = ops::conv_out_size(h, kh, spec.stride, spec.padding);
  const std::size_t ow = ops::conv_out_size(w, kw, spec.stride, spec.padding);
  check_dst_numel(dst, n * oc * oh * ow, "conv2d_forward_into");

  const std::size_t col_rows = ic * kh * kw;
  const std::size_t col_cols = oh * ow;
  ALFI_CHECK(col_scratch.size() >= col_rows * col_cols,
             "conv2d col scratch too small");
  float* col = col_scratch.data();

  for (std::size_t sample = 0; sample < n; ++sample) {
    detail::im2col(input.raw() + sample * ic * h * w, ic, h, w, kh, kw, spec.stride,
                   spec.padding, oh, ow, col);
    // dst[sample] = weight[oc, col_rows] @ col[col_rows, col_cols] + bias
    float* out_base = dst.raw() + sample * oc * col_cols;
    for (std::size_t o = 0; o < oc; ++o) {
      float* orow = out_base + o * col_cols;
      std::fill(orow, orow + col_cols, bias.raw()[o]);
      const float* wrow = weight.raw() + o * col_rows;
      for (std::size_t r = 0; r < col_rows; ++r) {
        const float wv = wrow[r];
        if (wv == 0.0f) continue;
        const float* crow = col + r * col_cols;
        for (std::size_t c = 0; c < col_cols; ++c) orow[c] += wv * crow[c];
      }
    }
    detail::canonicalize_nans(out_base, oc * col_cols);
  }
}

void Backend::conv2d_planned(Tensor& dst, const Tensor& input, const Tensor& weight,
                             const Tensor& bias, const ops::Conv2dPlan& plan,
                             std::span<float> col_scratch) const {
  ALFI_CHECK(plan.matches(input.shape()), "conv2d plan/input shape mismatch");
  const std::size_t n = input.dim(0), ic = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oc = weight.dim(0);
  const std::size_t col_rows = plan.col_rows;
  const std::size_t col_cols = plan.col_cols;
  check_dst_numel(dst, n * oc * col_cols, "conv2d_forward_planned");
  ALFI_CHECK(col_scratch.size() >= col_rows * col_cols,
             "conv2d col scratch too small");

  float* __restrict col = col_scratch.data();
  const std::int32_t* __restrict idx = plan.col_index.data();
  for (std::size_t sample = 0; sample < n; ++sample) {
    const float* __restrict src = input.raw() + sample * ic * h * w;
    for (std::size_t j = 0; j < col_rows * col_cols; ++j) {
      const std::int32_t k = idx[j];
      col[j] = k < 0 ? 0.0f : src[static_cast<std::size_t>(k)];
    }
    // dst[sample] = weight @ col + bias, blocked 4 weight rows x 4
    // output channels per sweep: the four col rows loaded for one
    // r-block feed four output rows, cutting col traffic 4x (the col
    // matrix is bigger than L1 for the mid-size convs).  Each output
    // element still accumulates its terms strictly left to right with
    // the same zero-weight skip, so the result is bit-identical to the
    // reference kernel in conv2d_forward.
    float* out_base = dst.raw() + sample * oc * col_cols;

    // One r-block (4 weight rows) of a single output row, with the
    // reference semantics: fused when all four weights are live, else
    // the per-row skip (a faulted weight can be exactly zero, and
    // 0 * Inf would manufacture a NaN the allocating path never sees).
    const auto rblock_single = [&](float* __restrict orow, const float* wrow,
                                   std::size_t r) {
      const float w0 = wrow[r], w1 = wrow[r + 1], w2 = wrow[r + 2],
                  w3 = wrow[r + 3];
      const float* __restrict c0 = col + r * col_cols;
      const float* __restrict c1 = c0 + col_cols;
      const float* __restrict c2 = c1 + col_cols;
      const float* __restrict c3 = c2 + col_cols;
      if (w0 != 0.0f && w1 != 0.0f && w2 != 0.0f && w3 != 0.0f) {
        for (std::size_t c = 0; c < col_cols; ++c) {
          orow[c] = orow[c] + w0 * c0[c] + w1 * c1[c] + w2 * c2[c] + w3 * c3[c];
        }
      } else {
        for (std::size_t k = r; k < r + 4; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          const float* __restrict crow = col + k * col_cols;
          for (std::size_t c = 0; c < col_cols; ++c) orow[c] += wv * crow[c];
        }
      }
    };
    // Scalar tail rows (col_rows % 4) of a single output row.
    const auto rtail_single = [&](float* __restrict orow, const float* wrow,
                                  std::size_t r) {
      for (; r < col_rows; ++r) {
        const float wv = wrow[r];
        if (wv == 0.0f) continue;
        const float* __restrict crow = col + r * col_cols;
        for (std::size_t c = 0; c < col_cols; ++c) orow[c] += wv * crow[c];
      }
    };

    std::size_t o = 0;
    for (; o + 2 <= oc; o += 2) {
      float* __restrict o0 = out_base + o * col_cols;
      float* __restrict o1 = o0 + col_cols;
      std::fill(o0, o0 + col_cols, bias.raw()[o]);
      std::fill(o1, o1 + col_cols, bias.raw()[o + 1]);
      const float* w0row = weight.raw() + o * col_rows;
      const float* w1row = w0row + col_rows;
      std::size_t r = 0;
      for (; r + 4 <= col_rows; r += 4) {
        const float a0 = w0row[r], a1 = w0row[r + 1], a2 = w0row[r + 2],
                    a3 = w0row[r + 3];
        const float b0 = w1row[r], b1 = w1row[r + 1], b2 = w1row[r + 2],
                    b3 = w1row[r + 3];
        const bool all_live = a0 != 0.0f && a1 != 0.0f && a2 != 0.0f &&
                              a3 != 0.0f && b0 != 0.0f && b1 != 0.0f &&
                              b2 != 0.0f && b3 != 0.0f;
        if (all_live) {
          const float* __restrict c0 = col + r * col_cols;
          const float* __restrict c1 = c0 + col_cols;
          const float* __restrict c2 = c1 + col_cols;
          const float* __restrict c3 = c2 + col_cols;
          for (std::size_t c = 0; c < col_cols; ++c) {
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
      std::fill(orow, orow + col_cols, bias.raw()[o]);
      const float* wrow = weight.raw() + o * col_rows;
      std::size_t r = 0;
      for (; r + 4 <= col_rows; r += 4) rblock_single(orow, wrow, r);
      rtail_single(orow, wrow, r);
    }
    detail::canonicalize_nans(out_base, oc * col_cols);
  }
}

void Backend::conv3d_forward(Tensor& dst, const Tensor& input, const Tensor& weight,
                             const Tensor& bias, const ops::Conv3dSpec& spec) const {
  ALFI_CHECK(input.rank() == 5, "conv3d input must be [N,C,D,H,W]");
  ALFI_CHECK(weight.rank() == 5, "conv3d weight must be [OC,IC,KD,KH,KW]");
  const std::size_t n = input.dim(0), ic = input.dim(1), d = input.dim(2),
                    h = input.dim(3), w = input.dim(4);
  const std::size_t oc = weight.dim(0), kd = weight.dim(2), kh = weight.dim(3),
                    kw = weight.dim(4);
  ALFI_CHECK(weight.dim(1) == ic, "conv3d channel mismatch");
  ALFI_CHECK(bias.rank() == 1 && bias.dim(0) == oc, "conv3d bias mismatch");
  const std::size_t od = ops::conv_out_size(d, kd, spec.stride, spec.padding);
  const std::size_t oh = ops::conv_out_size(h, kh, spec.stride, spec.padding);
  const std::size_t ow = ops::conv_out_size(w, kw, spec.stride, spec.padding);
  check_dst_numel(dst, n * oc * od * oh * ow, "conv3d_forward_into");
  const auto in_at = [&](std::size_t s, std::size_t c, std::ptrdiff_t z,
                         std::ptrdiff_t y, std::ptrdiff_t x) -> float {
    if (z < 0 || y < 0 || x < 0 || z >= static_cast<std::ptrdiff_t>(d) ||
        y >= static_cast<std::ptrdiff_t>(h) || x >= static_cast<std::ptrdiff_t>(w)) {
      return 0.0f;
    }
    return input.raw()[(((s * ic + c) * d + static_cast<std::size_t>(z)) * h +
                        static_cast<std::size_t>(y)) *
                           w +
                       static_cast<std::size_t>(x)];
  };

  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t oz = 0; oz < od; ++oz) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            double acc = bias.raw()[o];
            for (std::size_t c = 0; c < ic; ++c) {
              for (std::size_t kz = 0; kz < kd; ++kz) {
                for (std::size_t ky = 0; ky < kh; ++ky) {
                  for (std::size_t kx = 0; kx < kw; ++kx) {
                    const float wv =
                        weight.raw()[(((o * ic + c) * kd + kz) * kh + ky) * kw + kx];
                    const float iv = in_at(
                        s, c,
                        static_cast<std::ptrdiff_t>(oz * spec.stride + kz) -
                            static_cast<std::ptrdiff_t>(spec.padding),
                        static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                            static_cast<std::ptrdiff_t>(spec.padding),
                        static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                            static_cast<std::ptrdiff_t>(spec.padding));
                    acc += static_cast<double>(wv) * iv;
                  }
                }
              }
            }
            dst.raw()[(((s * oc + o) * od + oz) * oh + oy) * ow + ox] =
                static_cast<float>(acc);
          }
        }
      }
    }
  }
}

// ---- pooling ---------------------------------------------------------------

void Backend::maxpool2d(Tensor& dst, const Tensor& input, const ops::Pool2dSpec& spec,
                        std::size_t* argmax) const {
  ALFI_CHECK(input.rank() == 4, "maxpool2d input must be [N,C,H,W]");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = ops::conv_out_size(h, spec.kernel, spec.stride, 0);
  const std::size_t ow = ops::conv_out_size(w, spec.kernel, spec.stride, 0);
  check_dst_numel(dst, n * c * oh * ow, "maxpool2d_forward_into");

  std::size_t out_i = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.raw() + (s * c + ch) * h * w;
      const std::size_t plane_off = (s * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_off = plane_off + (oy * spec.stride) * w + ox * spec.stride;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const std::size_t y = oy * spec.stride + ky;
              const std::size_t x = ox * spec.stride + kx;
              const float v = plane[y * w + x];
              // NaN-aware: propagate NaN so corrupted activations are not
              // silently masked by pooling (matters for DUE detection).
              if (std::isnan(v) || v > best) {
                best = v;
                best_off = plane_off + y * w + x;
                if (std::isnan(v)) goto emit;
              }
            }
          }
        emit:
          dst.raw()[out_i] = best;
          if (argmax != nullptr) argmax[out_i] = best_off;
          ++out_i;
        }
      }
    }
  }
}

void Backend::avgpool2d(Tensor& dst, const Tensor& input,
                        const ops::Pool2dSpec& spec) const {
  ALFI_CHECK(input.rank() == 4, "avgpool2d input must be [N,C,H,W]");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = ops::conv_out_size(h, spec.kernel, spec.stride, 0);
  const std::size_t ow = ops::conv_out_size(w, spec.kernel, spec.stride, 0);
  check_dst_numel(dst, n * c * oh * ow, "avgpool2d_forward_into");
  const float inv = 1.0f / static_cast<float>(spec.kernel * spec.kernel);
  std::size_t out_i = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.raw() + (s * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              acc += plane[(oy * spec.stride + ky) * w + ox * spec.stride + kx];
            }
          }
          dst.raw()[out_i++] = static_cast<float>(acc) * inv;
        }
      }
    }
  }
}

void Backend::global_avgpool2d(Tensor& dst, const Tensor& input) const {
  ALFI_CHECK(input.rank() == 4, "global_avgpool2d input must be [N,C,H,W]");
  const std::size_t n = input.dim(0), c = input.dim(1),
                    plane = input.dim(2) * input.dim(3);
  check_dst_numel(dst, n * c, "global_avgpool2d_into");
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* src = input.raw() + (s * c + ch) * plane;
      double acc = 0.0;
      for (std::size_t i = 0; i < plane; ++i) acc += src[i];
      dst.raw()[s * c + ch] = static_cast<float>(acc) * inv;
    }
  }
}

// ---- activations -----------------------------------------------------------

void Backend::relu(Tensor& dst, const Tensor& input) const {
  check_dst_numel(dst, input.numel(), "relu_into");
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float v = input.raw()[i];
    dst.raw()[i] = v > 0.0f ? v : (std::isnan(v) ? v : 0.0f);
  }
}

void Backend::leaky_relu(Tensor& dst, const Tensor& input,
                         float negative_slope) const {
  check_dst_numel(dst, input.numel(), "leaky_relu_into");
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float v = input.raw()[i];
    dst.raw()[i] = v > 0.0f ? v : v * negative_slope;
  }
}

void Backend::sigmoid(Tensor& dst, const Tensor& input) const {
  check_dst_numel(dst, input.numel(), "sigmoid_into");
  for (std::size_t i = 0; i < input.numel(); ++i) {
    dst.raw()[i] = 1.0f / (1.0f + std::exp(-input.raw()[i]));
  }
}

void Backend::tanh_act(Tensor& dst, const Tensor& input) const {
  check_dst_numel(dst, input.numel(), "tanh_act_into");
  for (std::size_t i = 0; i < input.numel(); ++i) dst.raw()[i] = std::tanh(input.raw()[i]);
}

void Backend::clamp(Tensor& dst, const Tensor& input, float lo, float hi) const {
  ALFI_CHECK(lo <= hi, "clamp bounds inverted");
  check_dst_numel(dst, input.numel(), "clamp_into");
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float v = input.raw()[i];
    // NaN maps to lo so the mitigation layer also neutralizes NaN values.
    dst.raw()[i] = std::isnan(v) ? lo : std::min(std::max(v, lo), hi);
  }
}

// ---- normalization / heads -------------------------------------------------

void Backend::batchnorm2d_eval(Tensor& dst, const Tensor& input, const Tensor& gamma,
                               const Tensor& beta, const Tensor& running_mean,
                               const Tensor& running_var, float eps) const {
  ALFI_CHECK(input.rank() == 4, "batchnorm2d input must be [N,C,H,W]");
  const std::size_t n = input.dim(0), c = input.dim(1),
                    plane = input.dim(2) * input.dim(3);
  ALFI_CHECK(gamma.numel() == c && beta.numel() == c && running_mean.numel() == c &&
                 running_var.numel() == c,
             "batchnorm2d channel stats mismatch");
  check_dst_numel(dst, input.numel(), "batchnorm2d_eval_into");
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float mean = running_mean.raw()[ch];
    const float inv_std = 1.0f / std::sqrt(running_var.raw()[ch] + eps);
    const float g = gamma.raw()[ch];
    const float b = beta.raw()[ch];
    for (std::size_t s = 0; s < n; ++s) {
      const float* src = input.raw() + (s * c + ch) * plane;
      float* out = dst.raw() + (s * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        out[i] = (src[i] - mean) * inv_std * g + b;
      }
    }
  }
}

void Backend::softmax_rows(Tensor& dst, const Tensor& logits) const {
  ALFI_CHECK(logits.rank() == 2, "softmax_rows expects [N, K]");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  check_dst_numel(dst, logits.numel(), "softmax_rows_into");
  for (std::size_t row = 0; row < n; ++row) {
    const float* x = logits.raw() + row * k;
    float* y = dst.raw() + row * k;
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < k; ++i) maxv = std::max(maxv, x[i]);
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      y[i] = std::exp(x[i] - maxv);
      total += y[i];
    }
    const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (std::size_t i = 0; i < k; ++i) y[i] *= inv;
  }
}

void Backend::log_softmax_rows(Tensor& dst, const Tensor& logits) const {
  ALFI_CHECK(logits.rank() == 2, "log_softmax_rows expects [N, K]");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  check_dst_numel(dst, logits.numel(), "log_softmax_rows_into");
  for (std::size_t row = 0; row < n; ++row) {
    const float* x = logits.raw() + row * k;
    float* y = dst.raw() + row * k;
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < k; ++i) maxv = std::max(maxv, x[i]);
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) total += std::exp(x[i] - maxv);
    const float log_total = static_cast<float>(std::log(total)) + maxv;
    for (std::size_t i = 0; i < k; ++i) y[i] = x[i] - log_total;
  }
}

// ---- transformer ops ---------------------------------------------------------

void Backend::gelu(Tensor& dst, const Tensor& input) const {
  check_dst_numel(dst, input.numel(), "gelu_into");
  // Exact (erf) GELU; NaN/Inf propagate through erf so corrupted
  // activations stay visible to the monitor.
  constexpr float kInvSqrt2 = 0.70710678118654752440f;
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float v = input.raw()[i];
    dst.raw()[i] = 0.5f * v * (1.0f + std::erf(v * kInvSqrt2));
  }
}

void Backend::layernorm(Tensor& dst, const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, float eps) const {
  ALFI_CHECK(input.rank() >= 1, "layernorm input must be [..., F]");
  const std::size_t f = input.dim(input.rank() - 1);
  ALFI_CHECK(gamma.numel() == f && beta.numel() == f,
             "layernorm gamma/beta must match the normalized axis");
  check_dst_numel(dst, input.numel(), "layernorm_into");
  const std::size_t rows = input.numel() / f;
  for (std::size_t row = 0; row < rows; ++row) {
    const float* x = input.raw() + row * f;
    float* y = dst.raw() + row * f;
    double mean = 0.0;
    for (std::size_t i = 0; i < f; ++i) mean += x[i];
    mean /= static_cast<double>(f);
    double var = 0.0;
    for (std::size_t i = 0; i < f; ++i) {
      const double d = x[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(f);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    const float m = static_cast<float>(mean);
    for (std::size_t i = 0; i < f; ++i) {
      y[i] = (x[i] - m) * inv_std * gamma.raw()[i] + beta.raw()[i];
    }
  }
}

void Backend::softmax_over_heads(Tensor& dst, const Tensor& scores) const {
  ALFI_CHECK(scores.rank() >= 1, "softmax_over_heads expects [..., K]");
  const std::size_t k = scores.dim(scores.rank() - 1);
  check_dst_numel(dst, scores.numel(), "softmax_over_heads_into");
  const std::size_t rows = scores.numel() / k;
  for (std::size_t row = 0; row < rows; ++row) {
    const float* x = scores.raw() + row * k;
    float* y = dst.raw() + row * k;
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < k; ++i) maxv = std::max(maxv, x[i]);
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      y[i] = std::exp(x[i] - maxv);
      total += y[i];
    }
    const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (std::size_t i = 0; i < k; ++i) y[i] *= inv;
  }
}

void Backend::attention_scores(Tensor& dst, const Tensor& q, const Tensor& k,
                               std::size_t num_heads, float scale) const {
  ALFI_CHECK(q.rank() == 3 && k.rank() == 3, "attention q/k must be [N,T,E]");
  ALFI_CHECK(q.shape() == k.shape(), "attention q/k shape mismatch");
  const std::size_t n = q.dim(0), t = q.dim(1), e = q.dim(2);
  ALFI_CHECK(num_heads > 0 && e % num_heads == 0,
             "attention embed dim must divide num_heads");
  const std::size_t dh = e / num_heads;
  check_dst_numel(dst, n * num_heads * t * t, "attention_scores_into");
  for (std::size_t s = 0; s < n; ++s) {
    const float* qs = q.raw() + s * t * e;
    const float* ks = k.raw() + s * t * e;
    float* out = dst.raw() + s * num_heads * t * t;
    for (std::size_t h = 0; h < num_heads; ++h) {
      for (std::size_t i = 0; i < t; ++i) {
        const float* qi = qs + i * e + h * dh;
        float* orow = out + (h * t + i) * t;
        for (std::size_t j = 0; j < t; ++j) {
          const float* kj = ks + j * e + h * dh;
          double acc = 0.0;
          for (std::size_t d = 0; d < dh; ++d) {
            acc += static_cast<double>(qi[d]) * kj[d];
          }
          orow[j] = static_cast<float>(acc) * scale;
        }
      }
    }
  }
}

void Backend::attention_context(Tensor& dst, const Tensor& probs, const Tensor& v,
                                std::size_t num_heads) const {
  ALFI_CHECK(probs.rank() == 4, "attention probs must be [N,H,T,T]");
  ALFI_CHECK(v.rank() == 3, "attention v must be [N,T,E]");
  const std::size_t n = v.dim(0), t = v.dim(1), e = v.dim(2);
  ALFI_CHECK(num_heads > 0 && e % num_heads == 0,
             "attention embed dim must divide num_heads");
  const std::size_t dh = e / num_heads;
  ALFI_CHECK(probs.dim(0) == n && probs.dim(1) == num_heads &&
                 probs.dim(2) == t && probs.dim(3) == t,
             "attention probs/v shape mismatch");
  check_dst_numel(dst, n * t * e, "attention_context_into");
  for (std::size_t s = 0; s < n; ++s) {
    const float* ps = probs.raw() + s * num_heads * t * t;
    const float* vs = v.raw() + s * t * e;
    float* out = dst.raw() + s * t * e;
    for (std::size_t h = 0; h < num_heads; ++h) {
      for (std::size_t i = 0; i < t; ++i) {
        const float* prow = ps + (h * t + i) * t;
        float* orow = out + i * e + h * dh;
        for (std::size_t d = 0; d < dh; ++d) {
          double acc = 0.0;
          for (std::size_t j = 0; j < t; ++j) {
            acc += static_cast<double>(prow[j]) * vs[j * e + h * dh + d];
          }
          orow[d] = static_cast<float>(acc);
        }
      }
    }
  }
}

// ---- registry ---------------------------------------------------------------

namespace {

/// The scalar oracle: inherits every reference kernel unchanged.
class RefBackend final : public Backend {
 public:
  const char* name() const override { return "ref"; }
};

std::atomic<Backend*> g_active{nullptr};

}  // namespace

Backend& ref_backend() {
  static RefBackend backend;
  return backend;
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const std::vector<Backend*>& registered_backends() {
  static const std::vector<Backend*> backends = [] {
    std::vector<Backend*> list{&ref_backend()};
#if defined(ALFI_HAVE_AVX2)
    if (cpu_supports_avx2()) list.push_back(&detail::avx2_backend_instance());
#endif
    return list;
  }();
  return backends;
}

Backend* find_backend(const std::string& name) {
  for (Backend* backend : registered_backends()) {
    if (name == backend->name()) return backend;
  }
  return nullptr;
}

bool is_known_backend_name(const std::string& name) {
  return name.empty() || name == "ref" || name == "avx2" || name == "auto";
}

Backend& resolve_backend(const std::string& name) {
  if (name.empty() || name == "ref") return ref_backend();
  if (name == "auto") {
    Backend* avx2 = find_backend("avx2");
    return avx2 != nullptr ? *avx2 : ref_backend();
  }
  if (!is_known_backend_name(name)) {
    throw ConfigError("unknown backend '" + name + "' (expected ref, avx2 or auto)");
  }
  Backend* backend = find_backend(name);
  if (backend == nullptr) {
    throw ConfigError("backend '" + name +
                      "' is not available on this machine (build without AVX2 "
                      "support or CPU lacks avx2); use --backend auto for "
                      "best-available");
  }
  return *backend;
}

Backend& active_backend() {
  Backend* backend = g_active.load(std::memory_order_acquire);
  return backend != nullptr ? *backend : ref_backend();
}

void set_active_backend(Backend& backend) {
  g_active.store(&backend, std::memory_order_release);
}

}  // namespace alfi::tensor
