// Dispatch layer over tensor::Backend (see backend.h).
//
// Forward `_into` ops forward to the active backend, whose base-class
// methods carry the scalar reference kernels and validate shapes; the
// allocating forms stay thin shims over `_into`.  Backward/training
// ops, plan construction, and the classification-head helpers are
// backend-independent and live here unchanged.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/backend.h"

namespace alfi::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ALFI_CHECK(a.shape() == b.shape(), std::string(op) + ": shape mismatch " +
                                         a.shape().to_string() + " vs " +
                                         b.shape().to_string());
}

}  // namespace

// ---- elementwise -----------------------------------------------------------

void add_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  tensor::active_backend().add(dst, a, b);
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out(a.shape());
  add_into(out, a, b);
  return out;
}

void sub_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  tensor::active_backend().sub(dst, a, b);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out(a.shape());
  sub_into(out, a, b);
  return out;
}

void mul_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  tensor::active_backend().mul(dst, a, b);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out(a.shape());
  mul_into(out, a, b);
  return out;
}

void scale_into(Tensor& dst, const Tensor& a, float factor) {
  tensor::active_backend().scale(dst, a, factor);
}

Tensor scale(const Tensor& a, float factor) {
  Tensor out(a.shape());
  scale_into(out, a, factor);
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  tensor::active_backend().add_inplace(a, b);
}

void axpy_inplace(Tensor& a, float factor, const Tensor& b) {
  tensor::active_backend().axpy_inplace(a, factor, b);
}

// ---- linear algebra --------------------------------------------------------

void matmul_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  tensor::active_backend().matmul(dst, a, b);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  ALFI_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  Tensor out(Shape{a.dim(0), b.dim(1)});
  matmul_into(out, a, b);
  return out;
}

void transpose2d_into(Tensor& dst, const Tensor& a) {
  tensor::active_backend().transpose2d(dst, a);
}

Tensor transpose2d(const Tensor& a) {
  ALFI_CHECK(a.rank() == 2, "transpose2d expects rank-2 tensor");
  Tensor out(Shape{a.dim(1), a.dim(0)});
  transpose2d_into(out, a);
  return out;
}

void linear_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias) {
  tensor::active_backend().linear_forward(dst, input, weight, bias);
}

Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias) {
  ALFI_CHECK(input.rank() == 2, "linear input must be [N, IN]");
  ALFI_CHECK(weight.rank() == 2, "linear weight must be [OUT, IN]");
  Tensor out(Shape{input.dim(0), weight.dim(0)});
  linear_forward_into(out, input, weight, bias);
  return out;
}

LinearGrads linear_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output) {
  const std::size_t n = input.dim(0), in = input.dim(1);
  const std::size_t out_features = weight.dim(0);
  ALFI_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_features,
             "linear grad_output shape mismatch");
  LinearGrads grads{Tensor(Shape{n, in}), Tensor(Shape{out_features, in}),
                    Tensor(Shape{out_features})};
  for (std::size_t row = 0; row < n; ++row) {
    const float* x = input.raw() + row * in;
    const float* gy = grad_output.raw() + row * out_features;
    float* gx = grads.grad_input.raw() + row * in;
    for (std::size_t o = 0; o < out_features; ++o) {
      const float g = gy[o];
      if (g == 0.0f) continue;
      const float* w = weight.raw() + o * in;
      float* gw = grads.grad_weight.raw() + o * in;
      for (std::size_t i = 0; i < in; ++i) {
        gx[i] += g * w[i];
        gw[i] += g * x[i];
      }
      grads.grad_bias.raw()[o] += g;
    }
  }
  return grads;
}

// ---- convolution -----------------------------------------------------------

std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t padding) {
  ALFI_CHECK(in + 2 * padding >= kernel, "kernel larger than padded input");
  ALFI_CHECK(stride > 0, "stride must be positive");
  return (in + 2 * padding - kernel) / stride + 1;
}

std::size_t conv2d_scratch_floats(const Shape& input, const Shape& weight,
                                  const Conv2dSpec& spec) {
  ALFI_CHECK(input.rank() == 4 && weight.rank() == 4,
             "conv2d scratch expects [N,C,H,W] input and [OC,IC,KH,KW] weight");
  const std::size_t oh = conv_out_size(input[2], weight[2], spec.stride, spec.padding);
  const std::size_t ow = conv_out_size(input[3], weight[3], spec.stride, spec.padding);
  return weight[1] * weight[2] * weight[3] * oh * ow;
}

void conv2d_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         std::span<float> col_scratch) {
  tensor::active_backend().conv2d_forward(dst, input, weight, bias, spec, col_scratch);
}

Conv2dPlan make_conv2d_plan(const Shape& input, const Shape& weight,
                            const Conv2dSpec& spec) {
  ALFI_CHECK(input.rank() == 4 && weight.rank() == 4,
             "conv2d plan expects [N,C,H,W] input and [OC,IC,KH,KW] weight");
  ALFI_CHECK(weight[1] == input[1], "conv2d channel mismatch");
  const std::size_t ic = input[1], h = input[2], w = input[3];
  const std::size_t kh = weight[2], kw = weight[3];
  const std::size_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::size_t ow = conv_out_size(w, kw, spec.stride, spec.padding);

  Conv2dPlan plan;
  plan.channels = ic;
  plan.height = h;
  plan.width = w;
  plan.col_rows = ic * kh * kw;
  plan.col_cols = oh * ow;
  plan.kernel_h = kh;
  plan.kernel_w = kw;
  plan.stride = spec.stride;
  plan.padding = spec.padding;
  plan.out_height = oh;
  plan.out_width = ow;
  plan.col_index.resize(plan.col_rows * plan.col_cols);
  const std::size_t plane = h * w;
  for (std::size_t c = 0; c < ic; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        std::int32_t* row =
            plan.col_index.data() + ((c * kh + ky) * kw + kx) * plan.col_cols;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(y * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.padding);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(x * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.padding);
            const bool pad = in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(h) ||
                             in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(w);
            row[y * ow + x] =
                pad ? -1
                    : static_cast<std::int32_t>(c * plane +
                                                static_cast<std::size_t>(in_y) * w +
                                                static_cast<std::size_t>(in_x));
          }
        }
      }
    }
  }
  return plan;
}

void conv2d_forward_planned(Tensor& dst, const Tensor& input, const Tensor& weight,
                            const Tensor& bias, const Conv2dPlan& plan,
                            std::span<float> col_scratch) {
  tensor::active_backend().conv2d_planned(dst, input, weight, bias, plan, col_scratch);
}

namespace {

/// Output positions [lo, hi) along one axis whose taps meet input [b0, b1).
std::pair<std::size_t, std::size_t> conv_window_axis(std::size_t b0, std::size_t b1,
                                                     std::size_t kernel,
                                                     std::size_t stride,
                                                     std::size_t padding,
                                                     std::size_t out) {
  // Output y reads input [y*stride - padding, y*stride - padding + kernel):
  // it meets [b0, b1) iff y*stride >= b0 + padding + 1 - kernel and
  // y*stride <= b1 - 1 + padding.
  const std::size_t reach = b0 + padding + 1;
  const std::size_t lo = reach <= kernel ? 0 : (reach - kernel + stride - 1) / stride;
  const std::size_t hi = std::min(out, (b1 - 1 + padding) / stride + 1);
  return {lo, std::max(lo, hi)};
}

}  // namespace

Rect conv2d_output_window(const Conv2dPlan& plan, const Rect& box) {
  if (box.empty()) return {};
  const auto [y0, y1] = conv_window_axis(box.y0, box.y1, plan.kernel_h, plan.stride,
                                         plan.padding, plan.out_height);
  const auto [x0, x1] = conv_window_axis(box.x0, box.x1, plan.kernel_w, plan.stride,
                                         plan.padding, plan.out_width);
  return {y0, y1, x0, x1};
}

void conv2d_forward_planned_window(Tensor& dst, const Tensor& input, const Tensor& weight,
                                   const Tensor& bias, const Conv2dPlan& plan,
                                   const Rect& window, Conv2dWindowScratch& scratch,
                                   std::span<float> col_scratch) {
  ALFI_CHECK(plan.matches(input.shape()), "conv2d plan/input shape mismatch");
  ALFI_CHECK(window.y1 <= plan.out_height && window.x1 <= plan.out_width,
             "conv2d window exceeds the output map");
  if (window.empty()) return;
  const std::size_t n = input.dim(0), oc = weight.dim(0);
  const std::size_t rows = window.y1 - window.y0, cols = window.x1 - window.x0;
  const std::size_t ow = plan.out_width;
  ALFI_CHECK(dst.numel() == n * oc * plan.col_cols,
             "conv2d_forward_planned_window: dst size mismatch");

  // The window's columns of the gather map, row by row of the window.
  Conv2dPlan& win = scratch.plan;
  win.col_index.resize(plan.col_rows * rows * cols);
  win.channels = plan.channels;
  win.height = plan.height;
  win.width = plan.width;
  win.col_rows = plan.col_rows;
  win.col_cols = rows * cols;
  std::int32_t* to = win.col_index.data();
  for (std::size_t r = 0; r < plan.col_rows; ++r) {
    const std::int32_t* from = plan.col_index.data() + r * plan.col_cols;
    for (std::size_t y = window.y0; y < window.y1; ++y) {
      to = std::copy(from + y * ow + window.x0, from + y * ow + window.x1, to);
    }
  }

  const std::size_t out_floats = n * oc * rows * cols;
  if (scratch.out_storage.size() < out_floats) scratch.out_storage.resize(out_floats);
  const std::span<float> out_span(scratch.out_storage.data(), out_floats);
  const std::size_t dims[] = {n, oc, rows, cols};
  if (scratch.out.rank() != 4 || scratch.out.owns_storage()) {
    scratch.out = Tensor(Shape{n, oc, rows, cols}, out_span);
  } else {
    scratch.out.rebind(out_span, dims);
  }
  conv2d_forward_planned(scratch.out, input, weight, bias, win, col_scratch);

  const float* src = scratch.out.raw();
  for (std::size_t plane = 0; plane < n * oc; ++plane) {
    float* map = dst.raw() + plane * plan.col_cols;
    for (std::size_t y = window.y0; y < window.y1; ++y, src += cols) {
      std::copy(src, src + cols, map + y * ow + window.x0);
    }
  }
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec) {
  ALFI_CHECK(input.rank() == 4, "conv2d input must be [N,C,H,W]");
  ALFI_CHECK(weight.rank() == 4, "conv2d weight must be [OC,IC,KH,KW]");
  const std::size_t oh =
      conv_out_size(input.dim(2), weight.dim(2), spec.stride, spec.padding);
  const std::size_t ow =
      conv_out_size(input.dim(3), weight.dim(3), spec.stride, spec.padding);
  Tensor out(Shape{input.dim(0), weight.dim(0), oh, ow});
  std::vector<float> col(conv2d_scratch_floats(input.shape(), weight.shape(), spec));
  conv2d_forward_into(out, input, weight, bias, spec, col);
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec) {
  const std::size_t n = input.dim(0), ic = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oc = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const std::size_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::size_t ow = conv_out_size(w, kw, spec.stride, spec.padding);
  ALFI_CHECK(grad_output.shape() == Shape({n, oc, oh, ow}),
             "conv2d grad_output shape mismatch");

  Conv2dGrads grads{Tensor(input.shape()), Tensor(weight.shape()),
                    Tensor(Shape{oc})};
  const std::size_t col_rows = ic * kh * kw;
  const std::size_t col_cols = oh * ow;
  std::vector<float> col(col_rows * col_cols);
  std::vector<float> col_grad(col_rows * col_cols);

  for (std::size_t sample = 0; sample < n; ++sample) {
    tensor::detail::im2col(input.raw() + sample * ic * h * w, ic, h, w, kh, kw,
                           spec.stride, spec.padding, oh, ow, col.data());
    const float* gy_base = grad_output.raw() + sample * oc * col_cols;

    // grad_bias[o] += sum over spatial of gy
    for (std::size_t o = 0; o < oc; ++o) {
      double acc = 0.0;
      const float* gy = gy_base + o * col_cols;
      for (std::size_t c = 0; c < col_cols; ++c) acc += gy[c];
      grads.grad_bias.raw()[o] += static_cast<float>(acc);
    }

    // grad_weight += gy @ col^T ; col_grad = weight^T @ gy
    std::fill(col_grad.begin(), col_grad.end(), 0.0f);
    for (std::size_t o = 0; o < oc; ++o) {
      const float* gy = gy_base + o * col_cols;
      const float* wrow = weight.raw() + o * col_rows;
      float* gwrow = grads.grad_weight.raw() + o * col_rows;
      for (std::size_t r = 0; r < col_rows; ++r) {
        const float* crow = col.data() + r * col_cols;
        float* cgrow = col_grad.data() + r * col_cols;
        const float wv = wrow[r];
        double acc = 0.0;
        for (std::size_t c = 0; c < col_cols; ++c) {
          acc += static_cast<double>(gy[c]) * crow[c];
          cgrow[c] += wv * gy[c];
        }
        gwrow[r] += static_cast<float>(acc);
      }
    }

    tensor::detail::col2im(col_grad.data(), ic, h, w, kh, kw, spec.stride,
                           spec.padding, oh, ow,
                           grads.grad_input.raw() + sample * ic * h * w);
  }
  return grads;
}

void conv3d_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv3dSpec& spec) {
  tensor::active_backend().conv3d_forward(dst, input, weight, bias, spec);
}

Tensor conv3d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv3dSpec& spec) {
  ALFI_CHECK(input.rank() == 5, "conv3d input must be [N,C,D,H,W]");
  ALFI_CHECK(weight.rank() == 5, "conv3d weight must be [OC,IC,KD,KH,KW]");
  const std::size_t od =
      conv_out_size(input.dim(2), weight.dim(2), spec.stride, spec.padding);
  const std::size_t oh =
      conv_out_size(input.dim(3), weight.dim(3), spec.stride, spec.padding);
  const std::size_t ow =
      conv_out_size(input.dim(4), weight.dim(4), spec.stride, spec.padding);
  Tensor out(Shape{input.dim(0), weight.dim(0), od, oh, ow});
  conv3d_forward_into(out, input, weight, bias, spec);
  return out;
}

Conv3dGrads conv3d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv3dSpec& spec) {
  const std::size_t n = input.dim(0), ic = input.dim(1), d = input.dim(2),
                    h = input.dim(3), w = input.dim(4);
  const std::size_t oc = weight.dim(0), kd = weight.dim(2), kh = weight.dim(3),
                    kw = weight.dim(4);
  const std::size_t od = conv_out_size(d, kd, spec.stride, spec.padding);
  const std::size_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::size_t ow = conv_out_size(w, kw, spec.stride, spec.padding);
  ALFI_CHECK(grad_output.shape() == Shape({n, oc, od, oh, ow}),
             "conv3d grad_output shape mismatch");

  Conv3dGrads grads{Tensor(input.shape()), Tensor(weight.shape()), Tensor(Shape{oc})};
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t oz = 0; oz < od; ++oz) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const float g =
                grad_output.raw()[(((s * oc + o) * od + oz) * oh + oy) * ow + ox];
            if (g == 0.0f) continue;
            grads.grad_bias.raw()[o] += g;
            for (std::size_t c = 0; c < ic; ++c) {
              for (std::size_t kz = 0; kz < kd; ++kz) {
                const std::ptrdiff_t z =
                    static_cast<std::ptrdiff_t>(oz * spec.stride + kz) -
                    static_cast<std::ptrdiff_t>(spec.padding);
                if (z < 0 || z >= static_cast<std::ptrdiff_t>(d)) continue;
                for (std::size_t ky = 0; ky < kh; ++ky) {
                  const std::ptrdiff_t y =
                      static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                      static_cast<std::ptrdiff_t>(spec.padding);
                  if (y < 0 || y >= static_cast<std::ptrdiff_t>(h)) continue;
                  for (std::size_t kx = 0; kx < kw; ++kx) {
                    const std::ptrdiff_t x =
                        static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                        static_cast<std::ptrdiff_t>(spec.padding);
                    if (x < 0 || x >= static_cast<std::ptrdiff_t>(w)) continue;
                    const std::size_t in_off =
                        (((s * ic + c) * d + static_cast<std::size_t>(z)) * h +
                         static_cast<std::size_t>(y)) *
                            w +
                        static_cast<std::size_t>(x);
                    const std::size_t w_off =
                        (((o * ic + c) * kd + kz) * kh + ky) * kw + kx;
                    grads.grad_weight.raw()[w_off] += g * input.raw()[in_off];
                    grads.grad_input.raw()[in_off] += g * weight.raw()[w_off];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grads;
}

// ---- pooling ---------------------------------------------------------------

void maxpool2d_forward_into(Tensor& dst, const Tensor& input, const Pool2dSpec& spec,
                            std::size_t* argmax) {
  tensor::active_backend().maxpool2d(dst, input, spec, argmax);
}

MaxPoolResult maxpool2d_forward(const Tensor& input, const Pool2dSpec& spec) {
  ALFI_CHECK(input.rank() == 4, "maxpool2d input must be [N,C,H,W]");
  const std::size_t oh = conv_out_size(input.dim(2), spec.kernel, spec.stride, 0);
  const std::size_t ow = conv_out_size(input.dim(3), spec.kernel, spec.stride, 0);
  MaxPoolResult result{Tensor(Shape{input.dim(0), input.dim(1), oh, ow}), {}};
  result.argmax.resize(result.output.numel());
  maxpool2d_forward_into(result.output, input, spec, result.argmax.data());
  return result;
}

Tensor maxpool2d_backward(const Tensor& input, const MaxPoolResult& fwd,
                          const Tensor& grad_output) {
  ALFI_CHECK(grad_output.numel() == fwd.argmax.size(),
             "maxpool2d grad_output size mismatch");
  Tensor grad_input(input.shape());
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) {
    grad_input.raw()[fwd.argmax[i]] += grad_output.raw()[i];
  }
  return grad_input;
}

void avgpool2d_forward_into(Tensor& dst, const Tensor& input, const Pool2dSpec& spec) {
  tensor::active_backend().avgpool2d(dst, input, spec);
}

Tensor avgpool2d_forward(const Tensor& input, const Pool2dSpec& spec) {
  ALFI_CHECK(input.rank() == 4, "avgpool2d input must be [N,C,H,W]");
  const std::size_t oh = conv_out_size(input.dim(2), spec.kernel, spec.stride, 0);
  const std::size_t ow = conv_out_size(input.dim(3), spec.kernel, spec.stride, 0);
  Tensor out(Shape{input.dim(0), input.dim(1), oh, ow});
  avgpool2d_forward_into(out, input, spec);
  return out;
}

Tensor avgpool2d_backward(const Tensor& input, const Pool2dSpec& spec,
                          const Tensor& grad_output) {
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = conv_out_size(h, spec.kernel, spec.stride, 0);
  const std::size_t ow = conv_out_size(w, spec.kernel, spec.stride, 0);
  ALFI_CHECK(grad_output.shape() == Shape({n, c, oh, ow}),
             "avgpool2d grad_output shape mismatch");
  Tensor grad_input(input.shape());
  const float inv = 1.0f / static_cast<float>(spec.kernel * spec.kernel);
  std::size_t out_i = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* plane = grad_input.raw() + (s * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = grad_output.raw()[out_i++] * inv;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              plane[(oy * spec.stride + ky) * w + ox * spec.stride + kx] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void global_avgpool2d_into(Tensor& dst, const Tensor& input) {
  tensor::active_backend().global_avgpool2d(dst, input);
}

Tensor global_avgpool2d(const Tensor& input) {
  ALFI_CHECK(input.rank() == 4, "global_avgpool2d input must be [N,C,H,W]");
  Tensor out(Shape{input.dim(0), input.dim(1)});
  global_avgpool2d_into(out, input);
  return out;
}

Tensor global_avgpool2d_backward(const Tensor& input, const Tensor& grad_output) {
  const std::size_t n = input.dim(0), c = input.dim(1),
                    plane = input.dim(2) * input.dim(3);
  ALFI_CHECK(grad_output.shape() == Shape({n, c}),
             "global_avgpool2d grad_output mismatch");
  Tensor grad_input(input.shape());
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.raw()[s * c + ch] * inv;
      float* dst = grad_input.raw() + (s * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = g;
    }
  }
  return grad_input;
}

// ---- activations -----------------------------------------------------------

void relu_into(Tensor& dst, const Tensor& input) {
  tensor::active_backend().relu(dst, input);
}

Tensor relu(const Tensor& input) {
  Tensor out(input.shape());
  relu_into(out, input);
  return out;
}

Tensor relu_backward(const Tensor& input, const Tensor& grad_output) {
  check_same_shape(input, grad_output, "relu_backward");
  Tensor grad(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    grad.raw()[i] = input.raw()[i] > 0.0f ? grad_output.raw()[i] : 0.0f;
  }
  return grad;
}

void leaky_relu_into(Tensor& dst, const Tensor& input, float negative_slope) {
  tensor::active_backend().leaky_relu(dst, input, negative_slope);
}

Tensor leaky_relu(const Tensor& input, float negative_slope) {
  Tensor out(input.shape());
  leaky_relu_into(out, input, negative_slope);
  return out;
}

Tensor leaky_relu_backward(const Tensor& input, float negative_slope,
                           const Tensor& grad_output) {
  check_same_shape(input, grad_output, "leaky_relu_backward");
  Tensor grad(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    grad.raw()[i] =
        input.raw()[i] > 0.0f ? grad_output.raw()[i] : grad_output.raw()[i] * negative_slope;
  }
  return grad;
}

void sigmoid_into(Tensor& dst, const Tensor& input) {
  tensor::active_backend().sigmoid(dst, input);
}

Tensor sigmoid(const Tensor& input) {
  Tensor out(input.shape());
  sigmoid_into(out, input);
  return out;
}

Tensor sigmoid_backward(const Tensor& output, const Tensor& grad_output) {
  check_same_shape(output, grad_output, "sigmoid_backward");
  Tensor grad(output.shape());
  for (std::size_t i = 0; i < output.numel(); ++i) {
    const float y = output.raw()[i];
    grad.raw()[i] = grad_output.raw()[i] * y * (1.0f - y);
  }
  return grad;
}

void tanh_act_into(Tensor& dst, const Tensor& input) {
  tensor::active_backend().tanh_act(dst, input);
}

Tensor tanh_act(const Tensor& input) {
  Tensor out(input.shape());
  tanh_act_into(out, input);
  return out;
}

Tensor tanh_backward(const Tensor& output, const Tensor& grad_output) {
  check_same_shape(output, grad_output, "tanh_backward");
  Tensor grad(output.shape());
  for (std::size_t i = 0; i < output.numel(); ++i) {
    const float y = output.raw()[i];
    grad.raw()[i] = grad_output.raw()[i] * (1.0f - y * y);
  }
  return grad;
}

void clamp_into(Tensor& dst, const Tensor& input, float lo, float hi) {
  tensor::active_backend().clamp(dst, input, lo, hi);
}

Tensor clamp(const Tensor& input, float lo, float hi) {
  Tensor out(input.shape());
  clamp_into(out, input, lo, hi);
  return out;
}

// ---- normalization ----------------------------------------------------------

void batchnorm2d_eval_into(Tensor& dst, const Tensor& input, const Tensor& gamma,
                           const Tensor& beta, const Tensor& running_mean,
                           const Tensor& running_var, float eps) {
  tensor::active_backend().batchnorm2d_eval(dst, input, gamma, beta, running_mean,
                                            running_var, eps);
}

// ---- classification heads --------------------------------------------------

void softmax_rows_into(Tensor& dst, const Tensor& logits) {
  tensor::active_backend().softmax_rows(dst, logits);
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out(logits.shape());
  softmax_rows_into(out, logits);
  return out;
}

void log_softmax_rows_into(Tensor& dst, const Tensor& logits) {
  tensor::active_backend().log_softmax_rows(dst, logits);
}

Tensor log_softmax_rows(const Tensor& logits) {
  Tensor out(logits.shape());
  log_softmax_rows_into(out, logits);
  return out;
}

// ---- transformer ops --------------------------------------------------------

void gelu_into(Tensor& dst, const Tensor& input) {
  tensor::active_backend().gelu(dst, input);
}

Tensor gelu(const Tensor& input) {
  Tensor out(input.shape());
  gelu_into(out, input);
  return out;
}

Tensor gelu_backward(const Tensor& input, const Tensor& grad_output) {
  ALFI_CHECK(input.shape() == grad_output.shape(), "gelu_backward shape mismatch");
  Tensor grad(input.shape());
  constexpr double kInvSqrt2 = 0.70710678118654752440;
  constexpr double kInvSqrt2Pi = 0.39894228040143267794;  // 1/sqrt(2*pi)
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float g = grad_output.raw()[i];
    if (g == 0.0f) {
      grad.raw()[i] = 0.0f;
      continue;
    }
    const double x = input.raw()[i];
    const double cdf = 0.5 * (1.0 + std::erf(x * kInvSqrt2));
    const double pdf = kInvSqrt2Pi * std::exp(-0.5 * x * x);
    grad.raw()[i] = static_cast<float>((cdf + x * pdf) * g);
  }
  return grad;
}

void layernorm_into(Tensor& dst, const Tensor& input, const Tensor& gamma,
                    const Tensor& beta, float eps) {
  tensor::active_backend().layernorm(dst, input, gamma, beta, eps);
}

Tensor layernorm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  Tensor out(input.shape());
  layernorm_into(out, input, gamma, beta, eps);
  return out;
}

void softmax_over_heads_into(Tensor& dst, const Tensor& scores) {
  tensor::active_backend().softmax_over_heads(dst, scores);
}

Tensor softmax_over_heads(const Tensor& scores) {
  Tensor out(scores.shape());
  softmax_over_heads_into(out, scores);
  return out;
}

Tensor softmax_over_heads_backward(const Tensor& output, const Tensor& grad_output) {
  ALFI_CHECK(output.shape() == grad_output.shape(),
             "softmax_over_heads_backward shape mismatch");
  ALFI_CHECK(output.rank() >= 1, "softmax_over_heads_backward expects [..., K]");
  const std::size_t k = output.dim(output.rank() - 1);
  const std::size_t rows = output.numel() / k;
  Tensor grad(output.shape());
  for (std::size_t row = 0; row < rows; ++row) {
    const float* y = output.raw() + row * k;
    const float* dy = grad_output.raw() + row * k;
    float* dx = grad.raw() + row * k;
    double dot = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      dot += static_cast<double>(dy[i]) * y[i];
    }
    for (std::size_t i = 0; i < k; ++i) {
      dx[i] = y[i] * (dy[i] - static_cast<float>(dot));
    }
  }
  return grad;
}

void attention_scores_into(Tensor& dst, const Tensor& q, const Tensor& k,
                           std::size_t num_heads, float scale) {
  tensor::active_backend().attention_scores(dst, q, k, num_heads, scale);
}

Tensor attention_scores(const Tensor& q, const Tensor& k, std::size_t num_heads,
                        float scale) {
  Tensor out(Shape{q.dim(0), num_heads, q.dim(1), q.dim(1)});
  attention_scores_into(out, q, k, num_heads, scale);
  return out;
}

void attention_context_into(Tensor& dst, const Tensor& probs, const Tensor& v,
                            std::size_t num_heads) {
  tensor::active_backend().attention_context(dst, probs, v, num_heads);
}

Tensor attention_context(const Tensor& probs, const Tensor& v,
                         std::size_t num_heads) {
  Tensor out(v.shape());
  attention_context_into(out, probs, v, num_heads);
  return out;
}

float cross_entropy_loss(const Tensor& logits, const std::vector<std::size_t>& labels) {
  ALFI_CHECK(logits.rank() == 2 && logits.dim(0) == labels.size(),
             "cross_entropy label count mismatch");
  const Tensor logp = log_softmax_rows(logits);
  const std::size_t k = logits.dim(1);
  double loss = 0.0;
  for (std::size_t row = 0; row < labels.size(); ++row) {
    ALFI_CHECK(labels[row] < k, "label out of range");
    loss -= logp.raw()[row * k + labels[row]];
  }
  return static_cast<float>(loss / static_cast<double>(labels.size()));
}

Tensor cross_entropy_grad(const Tensor& logits, const std::vector<std::size_t>& labels) {
  ALFI_CHECK(logits.rank() == 2 && logits.dim(0) == labels.size(),
             "cross_entropy label count mismatch");
  Tensor grad = softmax_rows(logits);
  const std::size_t k = logits.dim(1);
  const float inv_n = 1.0f / static_cast<float>(labels.size());
  for (std::size_t row = 0; row < labels.size(); ++row) {
    grad.raw()[row * k + labels[row]] -= 1.0f;
  }
  for (std::size_t i = 0; i < grad.numel(); ++i) grad.raw()[i] *= inv_n;
  return grad;
}

std::vector<std::size_t> topk_indices(std::span<const float> values, std::size_t k) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t count = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(count),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      // Total order: NaN sorts last so a corrupted logit cannot
                      // claim top-1, and every tie (equal values, NaN-vs-NaN)
                      // breaks by index — partial_sort is unstable, so without
                      // the index tiebreak the reported class order for tied
                      // logits could differ between platforms or between the
                      // allocating and workspace inference paths.
                      const float va = values[a], vb = values[b];
                      const bool na = std::isnan(va), nb = std::isnan(vb);
                      if (na || nb) return na == nb ? a < b : nb;
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(count);
  return order;
}

}  // namespace alfi::ops
