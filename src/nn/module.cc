#include "nn/module.h"

#include <atomic>

#include "util/env.h"
#include "util/logging.h"

namespace cdcl {
namespace nn {
namespace {

std::atomic<int> g_fused_eval{-1};   // -1 = unresolved (consult env once)
std::atomic<int> g_fused_train{-1};  // -1 = unresolved (consult env once)

}  // namespace

bool FusedEvalEnabled() {
  int state = g_fused_eval.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvBool("CDCL_FUSED_EVAL", true) ? 1 : 0;
    g_fused_eval.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

void SetFusedEval(bool enabled) {
  g_fused_eval.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool FusedTrainEnabled() {
  int state = g_fused_train.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvBool("CDCL_FUSED_TRAIN", true) ? 1 : 0;
    g_fused_train.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

void SetFusedTrain(bool enabled) {
  g_fused_train.store(enabled ? 1 : 0, std::memory_order_relaxed);
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
