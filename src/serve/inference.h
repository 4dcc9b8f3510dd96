#ifndef CDCL_SERVE_INFERENCE_H_
#define CDCL_SERVE_INFERENCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "models/compact_transformer.h"
#include "serve/batcher.h"
#include "serve/protocol.h"

namespace cdcl {
namespace serve {

/// One completed request on its way back to a session.
struct CompletedResponse {
  uint64_t session_id = 0;
  Response response;
};

/// Test-only seam for publish-during-dispatch fault injection: when set, the
/// engine invokes the hook on the worker thread after Run() has loaded its
/// snapshot (passing that snapshot's version) and before any eval work. A
/// test can Publish() from inside the hook to force the interleaving
/// "publish lands while a batch is in flight" deterministically — the batch
/// must still be answered entirely by the snapshot it loaded, proving one
/// response can never mix weights from two generations. Pass nullptr to
/// clear. Not for production use.
void SetRunSeamForTest(std::function<void(uint32_t version)> seam);

/// Holds the published model snapshot and turns micro-batches into fused
/// batched evals.
///
/// The snapshot is an immutable, eval-mode CompactTransformer paired with a
/// monotonically increasing publish generation (`version`), published
/// through an atomic shared_ptr swap: worker threads load the
/// (model, version) record ONCE per batch and serve lock-free while a newer
/// snapshot (e.g. from a continual-training loop — see serve/continual.h)
/// is published underneath them. Requires the publisher to have called
/// SetTraining(false) and to never mutate the instance afterwards —
/// CompactTransformer::CloneSnapshot() builds exactly such an isolated deep
/// copy from a live trainer model.
///
/// Batch execution groups requests by task id (attention is task-keyed),
/// runs ONE fused batched encode per group (CompactTransformer::
/// EncodeSelfBatched — the flattened (b*n, d) GEMM sweep), then one head
/// GEMM per (task, type) sub-group. Because every eval kernel is bitwise
/// per-sample-stable (tests/batched_eval_test.cc), each response is bitwise
/// identical to a quiesced single-request eval regardless of how requests
/// were coalesced — the property tests/serve_test.cc pins at 1 and 4
/// workers. Every response is stamped with the snapshot version that computed
/// it; since a batch uses exactly one snapshot, responses can never exhibit
/// version skew (tests/continual_serve_test.cc pins this against a racing
/// Publish via the run seam above).
class InferenceEngine {
 public:
  explicit InferenceEngine(
      std::shared_ptr<const models::CompactTransformer> model);

  /// Atomically replaces the served snapshot and returns the new snapshot's
  /// version (versions start at 1 for the constructor-installed model and
  /// increase by 1 per publish). Thread-safe; in-flight batches finish on
  /// the snapshot they loaded.
  uint32_t Publish(std::shared_ptr<const models::CompactTransformer> model);

  /// The current snapshot (thread-safe acquire).
  std::shared_ptr<const models::CompactTransformer> Snapshot() const;

  /// Version of the currently published snapshot (thread-safe acquire).
  uint32_t version() const;

  /// Validates + executes one micro-batch. Runs on a batcher worker thread;
  /// tensor scratch draws from a thread-local step arena.
  std::vector<CompletedResponse> Run(std::vector<InferenceRequest> batch) const;

 private:
  /// Immutable (model, generation) record swapped atomically on publish, so
  /// a reader can never observe a model paired with the wrong version.
  struct VersionedSnapshot {
    std::shared_ptr<const models::CompactTransformer> model;
    uint32_t version = 0;
  };

  std::shared_ptr<const VersionedSnapshot> Load() const;

  std::shared_ptr<const VersionedSnapshot> snapshot_;  // atomic access
  std::atomic<uint32_t> next_version_{2};              // ctor installed v1
};

}  // namespace serve
}  // namespace cdcl

#endif  // CDCL_SERVE_INFERENCE_H_
