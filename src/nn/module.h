#ifndef CDCL_NN_MODULE_H_
#define CDCL_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace cdcl {
namespace nn {

/// Test seam: whether no-grad forwards take the fused batched-eval path
/// (fused attention / bias+activation epilogues over raw kernel buffers)
/// instead of the op-by-op tensor path. The two paths are bitwise identical
/// (tests/batched_eval_test.cc); the seam lets tests compare both sides.
/// Enabled unless SetFusedEval(false) was called.
bool FusedEvalEnabled();
void SetFusedEval(bool enabled);

/// Test seam: whether *recorded* (training) forwards take the fused
/// training path: each pre-norm encoder sublayer and the sequence pool
/// record one tape node whose hand-written backward replays the op chain's
/// kernels (tensor/fused_train.h). Bitwise identical to the op-by-op tape —
/// losses, gradients and post-step parameters match at every thread count
/// and ISA cap (tests/arena_test.cc). Enabled unless SetFusedTrain(false)
/// was called.
bool FusedTrainEnabled();
void SetFusedTrain(bool enabled);

/// A named trainable tensor, as returned by Module::NamedParameters().
struct NamedParameter {
  std::string name;
  Tensor tensor;
};

/// Base class for neural-network building blocks.
///
/// Subclasses register parameters and child modules in their constructor;
/// the base class then provides recursive parameter collection, train/eval
/// mode propagation and gradient clearing. Parameters are shared-storage
/// Tensor handles, so optimizers mutate them in place.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters in this module and children (including frozen ones).
  std::vector<Tensor> Parameters() const;
  /// Parameters with requires_grad set (the trainable subset).
  std::vector<Tensor> TrainableParameters() const;
  /// Parameters with hierarchical "child.param" names.
  std::vector<NamedParameter> NamedParameters() const;

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

  /// Clears gradients on all parameters.
  void ZeroGrad();

  /// Train/eval mode (controls dropout).
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Copies parameter values from `other` (shapes must match pairwise, in
  /// registration order).
  void CopyParametersFrom(const Module& other);

 protected:
  Module() = default;

  /// Registers a trainable tensor; returns the registered handle.
  Tensor RegisterParameter(std::string name, Tensor tensor);
  /// Registers a child module (not owned).
  void RegisterModule(std::string name, Module* child);
  /// Removes all registered children with the given name prefix. Used by
  /// task-growing containers when rebuilding their child lists.
  void ClearModules();

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<NamedParameter>* out) const;

  std::vector<NamedParameter> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace cdcl

#endif  // CDCL_NN_MODULE_H_
