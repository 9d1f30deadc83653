// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <functional>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "tensor/tensor.h"

namespace alfi::test {

/// Temporary directory removed when the fixture object goes out of scope.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("alfi_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Central-difference numerical gradient of scalar(x) at x, for gradient
/// checking layer backward passes.
inline float numerical_gradient(const std::function<float(float)>& scalar, float x,
                                float eps = 1e-3f) {
  return (scalar(x + eps) - scalar(x - eps)) / (2.0f * eps);
}

/// Asserts |a - b| <= atol + rtol * |b| elementwise-style for scalars.
inline void expect_close(float a, float b, float atol = 1e-4f, float rtol = 1e-3f,
                         const std::string& what = "") {
  EXPECT_LE(std::fabs(a - b), atol + rtol * std::fabs(b)) << what << " a=" << a
                                                          << " b=" << b;
}

/// What fault-cone replay serves from the baseline (DESIGN.md §12) in an
/// armed pass of the flat Sequential `net` on `input`, against a baseline
/// pass on `baseline_input` (1 row, or as many rows as `input`): the (row,
/// leaf) pairs whose leaf input is bit-identical to that leaf's input in
/// the baseline pass's matching row (row r, or row 0), and the leaves
/// where every row's is.  Leaves in `computed` (those whose weights the
/// armed faults changed) serve no row.  Computed with the allocating
/// forward, hooks armed by `arm(true)` for the armed pass only.
struct ConeCounts {
  std::size_t rows = 0;
  std::size_t leaves = 0;
};

inline ConeCounts cone_counts(nn::Sequential& net, const Tensor& baseline_input,
                              const Tensor& input, const std::function<void(bool)>& arm,
                              const std::vector<const nn::Module*>& computed = {}) {
  std::vector<Tensor> clean_inputs;
  arm(false);
  Tensor x = baseline_input;
  for (const auto& [name, leaf] : net.children()) {
    clean_inputs.push_back(x);
    x = leaf->forward(x);
  }
  arm(true);
  ConeCounts counts;
  x = input;
  for (std::size_t leaf = 0; leaf < net.size(); ++leaf) {
    const Tensor& base = clean_inputs[leaf];
    const std::size_t per_row = base.numel() / base.dim(0);
    const bool served = std::find(computed.begin(), computed.end(),
                                  net.children()[leaf].second.get()) == computed.end();
    std::size_t clean = 0;
    for (std::size_t r = 0; served && r < input.dim(0); ++r) {
      const float* base_row = base.raw() + (base.dim(0) == 1 ? 0 : r * per_row);
      clean += std::memcmp(x.raw() + r * per_row, base_row, per_row * sizeof(float)) == 0;
    }
    counts.rows += clean;
    counts.leaves += clean == input.dim(0);
    x = net.children()[leaf].second->forward(x);
  }
  arm(false);
  return counts;
}

}  // namespace alfi::test
