#ifndef CDCL_CKPT_CHECKPOINT_H_
#define CDCL_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/trainer_base.h"
#include "util/status.h"

namespace cdcl {
namespace ckpt {

// ---------------------------------------------------------------------------
// Trainer checkpoint/restore.
//
// A checkpoint captures EVERYTHING that feeds the bitwise-determinism
// contract at a task boundary: model parameters (with freeze flags),
// per-parameter Adam moments and step counts, the trainer's xoshiro256**
// stream (including the Box-Muller cache), the rehearsal memory at raw
// CompactFloats code level, the task-stream position, and trainer-specific
// extras (CdclTrainer's loss trace). A run restored from generation g and
// continued from task `next_task` produces losses, parameters, and eval
// accuracies bitwise identical to the run that never died
// (tests/ckpt_test.cc pins this).
//
// Durability comes from the io.h commit protocol; every section is CRC'd,
// so RestoreTrainer REJECTS any torn or bit-flipped generation and falls
// back to the newest older one that verifies — a crash can lose at most the
// in-flight task, never silently corrupt state.
// ---------------------------------------------------------------------------

/// Section tags of the trainer checkpoint container (io.h framing).
enum SectionTag : uint32_t {
  kMeta = 1,    // format version, next_task, per-task class counts
  kModel = 2,   // named parameters: name, freeze flag, shape, raw f32 bits
  kOptim = 3,   // positional Adam moments + per-parameter step counts
  kRng = 4,     // xoshiro256** state + gaussian cache
  kMemory = 5,  // rehearsal records, CompactFloats at raw code level
  kExtra = 6,   // trainer-specific (ExportExtraState)
};

struct CheckpointInfo {
  uint64_t generation = 0;
  /// First stream task the resumed run should observe.
  int64_t next_task = 0;
  std::string path;
};

struct SaveOptions {
  /// Newest generations kept on disk; older ones are deleted after the
  /// manifest durably names the new one. <= 0 keeps everything.
  int retain = 2;
};

/// Serializes `trainer` (quiescent, at a task boundary) and commits it to
/// `dir` as the next generation: data file first, then the manifest, both
/// via the crash-safe protocol (fault tags "data" / "manifest"). On any
/// error — injected or real — the previous generation remains the
/// restorable truth.
Result<CheckpointInfo> SaveTrainer(const std::string& dir,
                                   const baselines::TrainerBase& trainer,
                                   int64_t next_task,
                                   const SaveOptions& options = {});

/// Restores the newest verifiable generation into `trainer`, which must be
/// freshly constructed with the SAME options as the saving run (the caller
/// owns config compatibility; structural mismatches are detected and
/// returned as errors). Candidate order: the manifest's generation first,
/// then all on-disk generations newest-to-oldest; corrupt candidates are
/// logged and skipped. NotFound when the directory holds no generations.
Result<CheckpointInfo> RestoreTrainer(const std::string& dir,
                                      baselines::TrainerBase* trainer);

/// The decode step RestoreTrainer runs on each candidate generation, without
/// a trainer: CRC-verifies and parses a checkpoint image. IoError on any
/// corruption; never throws, and sizes nothing from a count the input does
/// not back with bytes.
Status VerifyCheckpoint(const std::vector<uint8_t>& bytes);

}  // namespace ckpt
}  // namespace cdcl

#endif  // CDCL_CKPT_CHECKPOINT_H_
