// Tensor shape: dimension sizes plus row-major index arithmetic.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace alfi {

/// Row-major shape of an N-dimensional tensor.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }

  std::size_t operator[](std::size_t axis) const {
    ALFI_CHECK(axis < dims_.size(), "shape axis out of range");
    return dims_[axis];
  }

  const std::vector<std::size_t>& dims() const { return dims_; }

  /// Overwrites the dims in place; allocates nothing when the rank stays.
  void assign(std::span<const std::size_t> dims) {
    dims_.assign(dims.begin(), dims.end());
  }

  /// Total number of elements (1 for rank-0).
  std::size_t numel() const {
    std::size_t n = 1;
    for (const std::size_t d : dims_) n *= d;
    return n;
  }

  /// Row-major flat offset of a multi-index.
  std::size_t offset(const std::vector<std::size_t>& index) const {
    ALFI_CHECK(index.size() == dims_.size(), "index rank mismatch");
    std::size_t flat = 0;
    for (std::size_t axis = 0; axis < dims_.size(); ++axis) {
      ALFI_CHECK(index[axis] < dims_[axis], "index out of range");
      flat = flat * dims_[axis] + index[axis];
    }
    return flat;
  }

  /// Inverse of offset(): flat index -> multi-index.
  std::vector<std::size_t> unravel(std::size_t flat) const {
    ALFI_CHECK(flat < numel(), "flat index out of range");
    std::vector<std::size_t> index(dims_.size(), 0);
    for (std::size_t axis = dims_.size(); axis-- > 0;) {
      index[axis] = flat % dims_[axis];
      flat /= dims_[axis];
    }
    return index;
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const {
    std::string out = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(dims_[i]);
    }
    return out + "]";
  }

 private:
  std::vector<std::size_t> dims_;
};

}  // namespace alfi
