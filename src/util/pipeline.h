#ifndef CDCL_UTIL_PIPELINE_H_
#define CDCL_UTIL_PIPELINE_H_

namespace cdcl {

/// Exists only so the frozen benchmark report (perfbench/src/report.cc) can
/// keep printing `CDCL_ASYNC_PIPELINE=off` in its header: training and eval
/// run one synchronous step loop. Delete it with the next benchmark change.
struct StepPipeline {
  static bool AsyncPipelineEnabled() { return false; }
};

}  // namespace cdcl

#endif  // CDCL_UTIL_PIPELINE_H_
