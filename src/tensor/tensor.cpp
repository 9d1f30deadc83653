#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace alfi {

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  adopt_owned();
  ALFI_CHECK(n_ == shape_.numel(),
             "value count does not match shape " + shape_.to_string());
}

Tensor::Tensor(Shape shape, std::span<float> storage)
    : shape_(std::move(shape)), ptr_(storage.data()), n_(storage.size()) {
  ALFI_CHECK(n_ == shape_.numel(),
             "storage size does not match shape " + shape_.to_string());
}

void Tensor::rebind(std::span<float> storage) {
  ALFI_CHECK(!owns_storage(), "only a borrowed view can be rebound");
  ALFI_CHECK(storage.size() == n_, "rebind: storage size differs from the view");
  ptr_ = storage.data();
}

void Tensor::rebind(std::span<float> storage, std::span<const std::size_t> dims) {
  ALFI_CHECK(!owns_storage(), "only a borrowed view can be rebound");
  ALFI_CHECK(dims.size() == shape_.rank(), "rebind: rank differs from the view");
  std::size_t numel = 1;
  for (const std::size_t d : dims) numel *= d;
  ALFI_CHECK(numel == storage.size(), "rebind: storage size does not match the dims");
  shape_.assign(dims);
  ptr_ = storage.data();
  n_ = storage.size();
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::normal(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  ALFI_CHECK(new_shape.numel() == numel(),
             "reshape must preserve element count: " + shape_.to_string() +
                 " -> " + new_shape.to_string());
  return Tensor(std::move(new_shape), std::vector<float>(ptr_, ptr_ + n_));
}

void Tensor::copy_from(const Tensor& source) {
  ALFI_CHECK(source.n_ == n_, "copy_from element count mismatch");
  std::copy(source.ptr_, source.ptr_ + n_, ptr_);
}

bool Tensor::has_nan() const {
  return std::any_of(ptr_, ptr_ + n_, [](float v) { return std::isnan(v); });
}

bool Tensor::has_inf() const {
  return std::any_of(ptr_, ptr_ + n_, [](float v) { return std::isinf(v); });
}

float Tensor::min() const {
  ALFI_CHECK(n_ > 0, "min of empty tensor");
  return *std::min_element(ptr_, ptr_ + n_);
}

float Tensor::max() const {
  ALFI_CHECK(n_ > 0, "max of empty tensor");
  return *std::max_element(ptr_, ptr_ + n_);
}

float Tensor::sum() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < n_; ++i) acc += ptr_[i];
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  ALFI_CHECK(n_ > 0, "mean of empty tensor");
  return sum() / static_cast<float>(n_);
}

std::size_t Tensor::argmax() const {
  ALFI_CHECK(n_ > 0, "argmax of empty tensor");
  return static_cast<std::size_t>(std::max_element(ptr_, ptr_ + n_) - ptr_);
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  ALFI_CHECK(a.shape_ == b.shape_, "max_abs_diff shape mismatch");
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.n_; ++i) {
    worst = std::max(worst, std::fabs(a.ptr_[i] - b.ptr_[i]));
  }
  return worst;
}

}  // namespace alfi
