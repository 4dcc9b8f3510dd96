#include "nn/module.h"

#include <atomic>

#include "util/logging.h"

namespace cdcl {
namespace nn {
namespace {

std::atomic<bool> g_fused_eval{true};
std::atomic<bool> g_fused_train{true};

}  // namespace

bool FusedEvalEnabled() {
  return g_fused_eval.load(std::memory_order_relaxed);
}

void SetFusedEval(bool enabled) {
  g_fused_eval.store(enabled, std::memory_order_relaxed);
}

bool FusedTrainEnabled() {
  return g_fused_train.load(std::memory_order_relaxed);
}

void SetFusedTrain(bool enabled) {
  g_fused_train.store(enabled, std::memory_order_relaxed);
}

Tensor Module::RegisterParameter(std::string name, Tensor tensor) {
  CDCL_CHECK(tensor.defined());
  tensor.set_requires_grad(true);
  params_.push_back({std::move(name), tensor});
  return params_.back().tensor;
}

void Module::RegisterModule(std::string name, Module* child) {
  CDCL_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

void Module::ClearModules() { children_.clear(); }

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const NamedParameter& np : NamedParameters()) out.push_back(np.tensor);
  return out;
}

std::vector<Tensor> Module::TrainableParameters() const {
  std::vector<Tensor> out;
  for (const NamedParameter& np : NamedParameters()) {
    if (np.tensor.requires_grad()) out.push_back(np.tensor);
  }
  return out;
}

std::vector<NamedParameter> Module::NamedParameters() const {
  std::vector<NamedParameter> out;
  CollectNamed("", &out);
  return out;
}

void Module::CollectNamed(const std::string& prefix,
                          std::vector<NamedParameter>* out) const {
  for (const NamedParameter& np : params_) {
    out->push_back({prefix + np.name, np.tensor});
  }
  for (const auto& [name, child] : children_) {
    child->CollectNamed(prefix + name + ".", out);
  }
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const Tensor& t : Parameters()) n += t.NumElements();
  return n;
}

void Module::ZeroGrad() {
  for (Tensor& t : Parameters()) t.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::CopyParametersFrom(const Module& other) {
  auto mine = NamedParameters();
  auto theirs = other.NamedParameters();
  CDCL_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    // Same hierarchical name, not just same shape: two structurally
    // different models can pair same-shaped tensors positionally (e.g. a
    // snapshot clone whose task replay diverged), and silently copying
    // across roles would corrupt the destination.
    CDCL_CHECK(mine[i].name == theirs[i].name)
        << mine[i].name << " vs " << theirs[i].name;
    CDCL_CHECK(mine[i].tensor.shape() == theirs[i].tensor.shape())
        << mine[i].name;
    mine[i].tensor.CopyDataFrom(theirs[i].tensor);
  }
}

}  // namespace nn
}  // namespace cdcl
