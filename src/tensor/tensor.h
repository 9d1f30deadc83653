// Dense fp32 tensor with value semantics.
//
// The whole framework works in IEEE-754 binary32 because that is the
// numeric type whose bit-level fault model the paper studies (§I: "a
// bit flip can affect different bit positions of a value where the most
// significant bits, e.g. exponent bits in floating point numbers, have
// the highest impact").  Data is contiguous row-major.
//
// Storage is either *owning* (a private vector) or *borrowed* (a span
// into a TensorArena block; see arena.h).  Borrowed tensors are how the
// inference workspace keeps per-layer outputs stable across calls
// without heap traffic.  Value semantics are preserved: copying a
// borrowed tensor deep-copies into owning storage, moving transfers the
// borrow.  All accessors go through `ptr_`/`n_`, which are always in
// sync with whichever storage is active, so the hot paths never branch
// on ownership.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace alfi {

class Tensor {
 public:
  /// Rank-0 scalar zero.
  Tensor() : shape_({}), data_(1, 0.0f) { adopt_owned(); }

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {
    adopt_owned();
  }

  Tensor(Shape shape, float fill_value)
      : shape_(std::move(shape)), data_(shape_.numel(), fill_value) {
    adopt_owned();
  }

  /// Adopts `values` (must match shape.numel()).
  Tensor(Shape shape, std::vector<float> values);

  /// Non-owning view over external storage (typically a TensorArena
  /// span); the storage must outlive the tensor and match numel().
  Tensor(Shape shape, std::span<float> storage);

  Tensor(const Tensor& other)
      : shape_(other.shape_), data_(other.ptr_, other.ptr_ + other.n_) {
    adopt_owned();
  }

  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      shape_ = other.shape_;
      data_.assign(other.ptr_, other.ptr_ + other.n_);
      adopt_owned();
    }
    return *this;
  }

  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        ptr_(other.ptr_),
        n_(other.n_) {
    if (!data_.empty()) ptr_ = data_.data();
    other.ptr_ = nullptr;
    other.n_ = 0;
  }

  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = std::move(other.shape_);
      data_ = std::move(other.data_);
      ptr_ = data_.empty() ? other.ptr_ : data_.data();
      n_ = other.n_;
      other.ptr_ = nullptr;
      other.n_ = 0;
    }
    return *this;
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }

  /// i.i.d. uniform values in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  /// i.i.d. normal values.
  static Tensor normal(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.rank(); }
  std::size_t numel() const { return n_; }
  std::size_t dim(std::size_t axis) const { return shape_[axis]; }

  /// True when this tensor owns its storage (false for arena views).
  bool owns_storage() const { return data_.data() == ptr_; }

  std::span<float> data() { return {ptr_, n_}; }
  std::span<const float> data() const { return {ptr_, n_}; }

  float& flat(std::size_t i) {
    ALFI_CHECK(i < n_, "flat index out of range");
    return ptr_[i];
  }
  float flat(std::size_t i) const {
    ALFI_CHECK(i < n_, "flat index out of range");
    return ptr_[i];
  }

  /// Multi-index element access (bounds-checked).
  float& at(const std::vector<std::size_t>& index) {
    return ptr_[shape_.offset(index)];
  }
  float at(const std::vector<std::size_t>& index) const {
    return ptr_[shape_.offset(index)];
  }

  /// Unchecked fast accessors for the hot inner loops of conv/matmul.
  float* raw() { return ptr_; }
  const float* raw() const { return ptr_; }

  /// Returns an owning copy with a new shape of identical numel.
  Tensor reshaped(Shape new_shape) const;

  /// Re-points this borrowed view at `storage` (numel() floats), keeping
  /// its shape.  Never allocates, so one cached view can walk the rows of
  /// a tensor.  Owning tensors refuse.
  void rebind(std::span<float> storage);

  /// Re-points this borrowed view at `storage`, reshaped to `dims` (the
  /// same rank as now, product storage.size()).  Never allocates.
  void rebind(std::span<float> storage, std::span<const std::size_t> dims);

  /// Copies `source`'s elements into this tensor's existing storage
  /// (numel must match; shapes may differ, e.g. Flatten).  Never
  /// allocates — the in-place sibling of copy assignment.
  void copy_from(const Tensor& source);

  void fill(float value) { std::fill(ptr_, ptr_ + n_, value); }

  /// True if any element is NaN.
  bool has_nan() const;
  /// True if any element is +-Inf.
  bool has_inf() const;

  float min() const;
  float max() const;
  float sum() const;
  float mean() const;

  /// Index of the maximum element (first on ties).
  std::size_t argmax() const;

  /// Max |a - b| over all elements; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ &&
           std::equal(ptr_, ptr_ + n_, other.ptr_, other.ptr_ + other.n_);
  }

 private:
  void adopt_owned() {
    ptr_ = data_.data();
    n_ = data_.size();
  }

  Shape shape_;
  std::vector<float> data_;  // empty when the storage is borrowed
  float* ptr_ = nullptr;     // active storage: data_.data() or external
  std::size_t n_ = 0;
};

}  // namespace alfi
