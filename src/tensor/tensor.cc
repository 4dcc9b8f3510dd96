#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/logging.h"

namespace cdcl {

namespace internal {

void TensorImpl::EnsureGrad() {
  if (grad.size() != data.size()) {
    grad.assign_like(data, static_cast<int64_t>(data.size()), 0.0f);
  }
}

void TensorImpl::AccumulateGrad(const float* src, int64_t n) {
  EnsureGrad();
  CDCL_DCHECK(static_cast<size_t>(n) == grad.size());
  float* g = grad.data();
  for (int64_t i = 0; i < n; ++i) g[i] += src[i];
}

}  // namespace internal

namespace {

thread_local bool g_grad_mode_enabled = true;

std::shared_ptr<internal::TensorImpl> NewImpl(const Shape& shape,
                                              bool requires_grad) {
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  impl->data.assign(shape.NumElements(), 0.0f);
  impl->requires_grad = requires_grad;
  return impl;
}

}  // namespace

bool GradModeEnabled() { return g_grad_mode_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode_enabled) {
  g_grad_mode_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_mode_enabled = previous_; }

Tensor::Tensor(const Shape& shape, bool requires_grad)
    : impl_(NewImpl(shape, requires_grad)) {}

Tensor Tensor::Uninitialized(const Shape& shape) {
  Tensor t;
  t.impl_ = std::make_shared<internal::TensorImpl>();
  t.impl_->shape = shape;
  t.impl_->data.acquire(shape.NumElements());
  return t;
}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Tensor(shape, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  Tensor t(shape, requires_grad);
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(Shape{}, value, requires_grad);
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  CDCL_CHECK_EQ(static_cast<int64_t>(values.size()), shape.NumElements());
  Tensor t;
  t.impl_ = std::make_shared<internal::TensorImpl>();
  t.impl_->shape = shape;
  t.impl_->data.adopt(std::move(values));
  t.impl_->requires_grad = requires_grad;
  return t;
}

Tensor Tensor::Randn(const Shape& shape, Rng* rng, float stddev,
                     bool requires_grad) {
  CDCL_CHECK(rng != nullptr);
  Tensor t(shape, requires_grad);
  float* d = t.data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    d[i] = static_cast<float>(rng->NextGaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::RandUniform(const Shape& shape, Rng* rng, float lo, float hi,
                           bool requires_grad) {
  CDCL_CHECK(rng != nullptr);
  Tensor t(shape, requires_grad);
  float* d = t.data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    d[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

const Shape& Tensor::shape() const {
  CDCL_CHECK(defined());
  return impl_->shape;
}

float* Tensor::data() {
  CDCL_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  CDCL_CHECK(defined());
  return impl_->data.data();
}

float& Tensor::at(int64_t i) {
  CDCL_DCHECK(ndim() <= 1);
  return data()[i];
}
float Tensor::at(int64_t i) const {
  CDCL_DCHECK(ndim() <= 1);
  return data()[i];
}
float& Tensor::at(int64_t i, int64_t j) {
  CDCL_DCHECK(ndim() == 2);
  return data()[i * dim(1) + j];
}
float Tensor::at(int64_t i, int64_t j) const {
  CDCL_DCHECK(ndim() == 2);
  return data()[i * dim(1) + j];
}
float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  CDCL_DCHECK(ndim() == 3);
  return data()[(i * dim(1) + j) * dim(2) + k];
}
float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  CDCL_DCHECK(ndim() == 3);
  return data()[(i * dim(1) + j) * dim(2) + k];
}
float& Tensor::at(int64_t i, int64_t j, int64_t k, int64_t l) {
  CDCL_DCHECK(ndim() == 4);
  return data()[((i * dim(1) + j) * dim(2) + k) * dim(3) + l];
}
float Tensor::at(int64_t i, int64_t j, int64_t k, int64_t l) const {
  CDCL_DCHECK(ndim() == 4);
  return data()[((i * dim(1) + j) * dim(2) + k) * dim(3) + l];
}

float Tensor::item() const {
  CDCL_CHECK_EQ(NumElements(), 1);
  return data()[0];
}

std::vector<float> Tensor::ToVector() const {
  CDCL_CHECK(defined());
  const float* p = impl_->data.data();
  return std::vector<float>(p, p + impl_->data.size());
}

bool Tensor::requires_grad() const { return defined() && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  CDCL_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::has_grad() const {
  return defined() && impl_->grad.size() == impl_->data.size();
}

float* Tensor::grad_data() {
  CDCL_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const float* Tensor::grad_data() const {
  CDCL_CHECK(has_grad());
  return impl_->grad.data();
}

Tensor Tensor::GradTensor() const {
  CDCL_CHECK(defined());
  Tensor g(shape());
  // An empty grad has a null data(); memcpy from null is UB even for 0 bytes.
  if (has_grad() && impl_->grad.size() > 0) {
    std::memcpy(g.data(), impl_->grad.data(), impl_->grad.size() * sizeof(float));
  }
  return g;
}

void Tensor::Backward() {
  CDCL_CHECK(defined());
  CDCL_CHECK_EQ(NumElements(), 1);

  using internal::GradNode;
  using internal::TensorImpl;

  // Phase 1: topological order via iterative post-order DFS over grad nodes.
  // Entries own their impls so the execution phase below can drop each node
  // (and with it the closure's references to upstream activations) the
  // moment it has run, without dangling the not-yet-executed tail.
  std::vector<std::shared_ptr<TensorImpl>> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<std::shared_ptr<TensorImpl>, size_t>> stack;
  stack.emplace_back(impl_, 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [impl, next_child] = stack.back();
    if (impl->node == nullptr || next_child >= impl->node->inputs.size()) {
      order.push_back(std::move(impl));
      stack.pop_back();
      continue;
    }
    const std::shared_ptr<TensorImpl>& child = impl->node->inputs[next_child];
    ++next_child;
    if (child->node != nullptr && visited.insert(child.get()).second) {
      stack.emplace_back(child, 0);
    }
  }

  // Phase 2: flatten into a schedule that owns every GradNode. The tape is
  // consumed here — impls no longer point at their nodes, so even a retained
  // loss tensor stops pinning the step's intermediate activations.
  std::vector<std::shared_ptr<GradNode>> schedule;
  schedule.reserve(order.size());
  for (const auto& impl : order) schedule.push_back(std::move(impl->node));

  impl_->EnsureGrad();
  impl_->grad.data()[0] = 1.0f;

  // Phase 3: execute in reverse topological order, releasing each node
  // (closure + input references) and impl handle as it is consumed so the
  // graph's memory drains progressively instead of at the end of the walk.
  for (size_t i = order.size(); i-- > 0;) {
    std::shared_ptr<GradNode> node = std::move(schedule[i]);
    if (node == nullptr) {
      order[i].reset();
      continue;
    }
    if (order[i]->grad.size() != order[i]->data.size()) {
      // This intermediate never received a gradient; its backward still runs
      // on zeros (its inputs may get gradients through other paths).
      order[i]->EnsureGrad();
    }
    node->backward(*order[i]);
    order[i].reset();
  }
}

void Tensor::ZeroGrad() {
  CDCL_CHECK(defined());
  impl_->grad.fill(0.0f);
}

Tensor Tensor::Detach() const {
  CDCL_CHECK(defined());
  Tensor t;
  t.impl_ = std::make_shared<internal::TensorImpl>();
  t.impl_->shape = impl_->shape;
  // Value copy keeps detach semantics simple; storage routes to the active
  // arena like any other step-scoped value.
  t.impl_->data.acquire(static_cast<int64_t>(impl_->data.size()));
  std::memcpy(t.impl_->data.data(), impl_->data.data(),
              impl_->data.size() * sizeof(float));
  t.impl_->requires_grad = false;
  return t;
}

Tensor Tensor::Clone() const { return Detach(); }

void Tensor::Fill(float value) {
  CDCL_CHECK(defined());
  impl_->data.fill(value);
}

void Tensor::CopyDataFrom(const Tensor& other) {
  CDCL_CHECK(defined());
  CDCL_CHECK(other.defined());
  CDCL_CHECK_EQ(NumElements(), other.NumElements());
  std::memcpy(impl_->data.data(), other.data(),
              impl_->data.size() * sizeof(float));
}

Tensor Tensor::WrapImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

}  // namespace cdcl
