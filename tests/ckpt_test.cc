// Crash-safety suite for the checkpoint/restore subsystem (src/ckpt/).
//
// The headline pin: a run killed at a task boundary and restored into a
// FRESH trainer continues with losses, parameters, and eval accuracies
// bitwise identical to the run that never died. Around it, a deterministic
// fault matrix (util/fault.h — no sleeps, no subprocesses): injected crashes
// at every syscall of the commit protocol, short writes, ENOSPC/EIO, and
// direct on-disk corruption (truncation, bit flips) — every wreckage must be
// detected via CRC and restore must fall back to the newest generation that
// verifies. A seeded mutation fuzz feeds CRC-resealed mutants of real
// checkpoints to the decoders. scripts/verify.sh runs this suite under
// ASan/UBSan.

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "gtest/gtest.h"
#include "models/compact_transformer.h"
#include "tensor/arena.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/matmul_quant.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

// Largest single heap request this thread made while a probe was armed. The
// decoder fuzz below replaces the global operator new with this counting
// wrapper to prove no mutant sizes an allocation beyond its own input.
namespace {
thread_local bool t_probe_armed = false;
thread_local size_t t_probe_largest = 0;
}  // namespace

// GCC cannot tell that these replacements pair malloc with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (t_probe_armed && n > t_probe_largest) t_probe_largest = n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cdcl {
namespace {

using ckpt::CheckpointInfo;
using ckpt::RestoreTrainer;
using ckpt::SaveOptions;
using ckpt::SaveTrainer;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

data::CrossDomainTaskStream TinyDigitsStream(int64_t tasks) {
  data::TaskStreamOptions opt;
  opt.family = "digits";
  opt.source_domain = "MN";
  opt.target_domain = "US";
  opt.num_tasks = tasks;
  opt.classes_per_task = 2;
  opt.train_per_class = 8;
  opt.test_per_class = 4;
  opt.seed = 1;
  return *data::CrossDomainTaskStream::Make(opt);
}

core::CdclOptions TinyCdclOptions() {
  core::CdclOptions opt;
  opt.base.model.image_hw = 16;
  opt.base.model.channels = 1;
  opt.base.model.embed_dim = 16;
  opt.base.model.num_layers = 1;
  opt.base.epochs = 2;
  opt.base.warmup_epochs = 1;
  opt.base.batch_size = 8;
  opt.base.memory_size = 32;
  opt.base.seed = 3;
  return opt;
}

/// Fresh scratch directory under TMPDIR, removed (recursively, one level —
/// checkpoints are flat) by the guard's destructor.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cdcl_ckpt_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path_.empty()) return;
    DIR* d = ::opendir(path_.c_str());
    if (d != nullptr) {
      for (dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<float> FlatParams(const models::CompactTransformer& model) {
  std::vector<float> flat;
  for (const auto& np : model.NamedParameters()) {
    flat.insert(flat.end(), np.tensor.data(),
                np.tensor.data() + np.tensor.NumElements());
  }
  return flat;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Byte-level surgery on a committed checkpoint file (corruption sweep).
std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ckpt::ReadFileBytes(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {  // an empty vector's data() may be null
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Container + serialization primitives
// ---------------------------------------------------------------------------

TEST(CkptIoTest, SectionsRoundTripAndRejectCorruption) {
  std::vector<ckpt::Section> sections(2);
  sections[0].tag = 7;
  sections[0].payload = {1, 2, 3, 4, 5};
  sections[1].tag = 9;
  sections[1].payload = {};  // empty payloads are legal
  const std::vector<uint8_t> bytes = ckpt::EncodeSections(sections);

  std::vector<ckpt::Section> decoded;
  ASSERT_TRUE(ckpt::DecodeSections(bytes, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].tag, 7u);
  EXPECT_EQ(decoded[0].payload, sections[0].payload);
  EXPECT_EQ(decoded[1].tag, 9u);
  EXPECT_TRUE(decoded[1].payload.empty());

  // Every single-byte flip anywhere in the container must be detected: the
  // magic, the counts/lengths, the payloads (CRC), and the CRCs themselves.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> evil = bytes;
    evil[i] ^= 0x40;
    std::vector<ckpt::Section> out;
    EXPECT_FALSE(ckpt::DecodeSections(evil, &out).ok()) << "byte " << i;
  }
  // Truncation at every boundary must be detected too.
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + n);
    std::vector<ckpt::Section> out;
    EXPECT_FALSE(ckpt::DecodeSections(torn, &out).ok()) << "len " << n;
  }
  // Trailing garbage is rejected (a concatenated/doubled write is not a
  // valid checkpoint).
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  std::vector<ckpt::Section> out;
  EXPECT_FALSE(ckpt::DecodeSections(padded, &out).ok());
}

// A count field larger than the bytes behind it must be rejected before
// anything is sized from it: an IoError, never std::bad_alloc.
TEST(CkptIoTest, HugeSectionCountIsRejectedNotAllocated) {
  std::vector<ckpt::Section> sections(1);
  sections[0].tag = 7;
  sections[0].payload = {1, 2, 3};
  std::vector<uint8_t> bytes = ckpt::EncodeSections(sections);
  for (size_t i = 8; i < 12; ++i) bytes[i] = 0xFF;  // u32 count after magic
  std::vector<ckpt::Section> out;
  Status st;
  EXPECT_NO_THROW(st = ckpt::DecodeSections(bytes, &out));
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(CkptIoTest, GenerationNamesAndListing) {
  TempDir dir;
  EXPECT_EQ(ckpt::GenerationFileName(7), "ckpt-00000007.bin");
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  EXPECT_TRUE(gens.empty());

  ASSERT_TRUE(ckpt::CommitFile(dir.path(), ckpt::GenerationFileName(2),
                               {1, 2, 3}, "data")
                  .ok());
  ASSERT_TRUE(ckpt::CommitFile(dir.path(), ckpt::GenerationFileName(10),
                               {4, 5}, "data")
                  .ok());
  // Stray files must not parse as generations.
  WriteAll(dir.path() + "/ckpt-0000000x.bin", {0});
  WriteAll(dir.path() + "/manifest.bin", {0});
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 2u);
  EXPECT_EQ(gens[1], 10u);

  ASSERT_TRUE(ckpt::RemoveGeneration(dir.path(), 2).ok());
  ASSERT_TRUE(ckpt::RemoveGeneration(dir.path(), 2).ok());  // idempotent
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 1u);
  EXPECT_EQ(gens[0], 10u);
}

// ---------------------------------------------------------------------------
// Round trip: everything the trainer is made of survives save + restore
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripIsBitwiseComplete) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());

  TempDir dir;
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 2);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->generation, 1u);
  EXPECT_EQ(saved->next_task, 2);

  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(info->next_task, 2);

  // Model: task structure, freeze flags (implied by AddTask replay), bits.
  ASSERT_EQ(restored.model().num_tasks(), trainer.model().num_tasks());
  ASSERT_EQ(restored.tasks_seen(), trainer.tasks_seen());
  EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()),
                           FlatParams(trainer.model())));

  // Optimizer: per-parameter Adam moments and step counts.
  const auto want_opt = trainer.optimizer().ExportState();
  const auto got_opt = restored.optimizer().ExportState();
  ASSERT_EQ(got_opt.size(), want_opt.size());
  for (size_t i = 0; i < want_opt.size(); ++i) {
    EXPECT_EQ(got_opt[i].present, want_opt[i].present) << i;
    EXPECT_EQ(got_opt[i].step, want_opt[i].step) << i;
    EXPECT_TRUE(BitwiseEqual(got_opt[i].m, want_opt[i].m)) << i;
    EXPECT_TRUE(BitwiseEqual(got_opt[i].v, want_opt[i].v)) << i;
  }

  // RNG: xoshiro state words and the Box-Muller cache.
  const Rng::StateSnapshot want_rng = trainer.rng().SaveState();
  const Rng::StateSnapshot got_rng = restored.rng().SaveState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got_rng.state[i], want_rng.state[i]);
  EXPECT_EQ(got_rng.has_cached_gaussian, want_rng.has_cached_gaussian);
  EXPECT_EQ(got_rng.cached_gaussian, want_rng.cached_gaussian);

  // Rehearsal memory: same record count, labels, and compressed logit codes.
  ASSERT_EQ(restored.memory().size(), trainer.memory().size());
  ASSERT_GT(trainer.memory().size(), 0);
  for (int64_t i = 0; i < trainer.memory().size(); ++i) {
    const cl::MemoryRecord& want = trainer.memory().records()[i];
    const cl::MemoryRecord& got = restored.memory().records()[i];
    EXPECT_EQ(got.label, want.label) << i;
    EXPECT_EQ(got.task_label, want.task_label) << i;
    EXPECT_EQ(got.task_id, want.task_id) << i;
    EXPECT_EQ(got.logit_tasks, want.logit_tasks) << i;
    EXPECT_EQ(got.confidence, want.confidence) << i;
    ASSERT_EQ(got.source_image.NumElements(), want.source_image.NumElements());
    EXPECT_EQ(std::memcmp(got.source_image.data(), want.source_image.data(),
                          static_cast<size_t>(want.source_image.NumElements()) *
                              sizeof(float)),
              0)
        << i;
  }

  // Trainer extras: CdclTrainer's loss trace and diagnostics.
  EXPECT_TRUE(BitwiseEqual(restored.loss_trace(), trainer.loss_trace()));
  EXPECT_EQ(restored.last_pair_count(), trainer.last_pair_count());
  EXPECT_EQ(restored.last_pseudo_label_accuracy(),
            trainer.last_pseudo_label_accuracy());
}

TEST(CheckpointTest, RestoreDemandsAFreshTrainer) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());

  // A trainer that already grew a task must be rejected — restore replays
  // AddTask and cannot merge into existing structure.
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &trainer);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, EmptyDirectoryIsNotFound) {
  TempDir dir;
  core::CdclTrainer trainer(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &trainer);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// The headline: kill at a task boundary, restore, finish — bitwise identical
// ---------------------------------------------------------------------------

void ExpectKillAndResumeBitwise() {
  auto stream = TinyDigitsStream(3);

  // Run A: never dies.
  core::CdclTrainer uninterrupted(TinyCdclOptions());
  const Result<cl::ContinualResult> full =
      cl::RunContinualExperiment(&uninterrupted, stream);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Run B: stops at the task-0 boundary (the graceful-shutdown path),
  // checkpoints, and "dies".
  TempDir dir;
  core::CdclTrainer victim(TinyCdclOptions());
  cl::ExperimentOptions stop_after_first;
  stop_after_first.stop_requested = [&victim] {
    return victim.tasks_seen() >= 1;
  };
  const Result<cl::ContinualResult> before =
      cl::RunContinualExperiment(&victim, stream, stop_after_first);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before->stopped_early);
  EXPECT_EQ(before->last_task_observed, 0);
  ASSERT_TRUE(SaveTrainer(dir.path(), victim, 1).ok());

  // Run C: a fresh process restores and finishes the stream.
  core::CdclTrainer resumed(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &resumed);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->next_task, 1);
  cl::ExperimentOptions resume;
  resume.first_task = info->next_task;
  const Result<cl::ContinualResult> rest =
      cl::RunContinualExperiment(&resumed, stream, resume);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();

  // Parameters: bitwise equal to the run that never died.
  EXPECT_TRUE(BitwiseEqual(FlatParams(resumed.model()),
                           FlatParams(uninterrupted.model())))
      << "resumed parameters diverged from the uninterrupted run";

  // Loss trace: the full trace (task 0 saved + tasks 1..2 resumed) must be
  // the uninterrupted trace, float for float.
  EXPECT_TRUE(BitwiseEqual(resumed.loss_trace(), uninterrupted.loss_trace()))
      << "resumed loss trajectory diverged";

  // Eval matrices: every lower-triangle cell the resumed run computed
  // (rows >= 1) must equal the uninterrupted run's exactly.
  for (int64_t i = 1; i < 3; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(rest->til.IsSet(i, j)) << i << "," << j;
      EXPECT_EQ(rest->til.Get(i, j), full->til.Get(i, j)) << i << "," << j;
      EXPECT_EQ(rest->cil.Get(i, j), full->cil.Get(i, j)) << i << "," << j;
    }
  }
  // And the pre-kill run's own row 0 matches too (sanity: the two runs were
  // identical before the kill).
  EXPECT_EQ(before->til.Get(0, 0), full->til.Get(0, 0));
  EXPECT_EQ(before->cil.Get(0, 0), full->cil.Get(0, 0));
}

// The pin holds in either step-arena mode: a checkpoint written with the
// arena off must resume bitwise with it off too, or the determinism
// contract is a configuration accident.
TEST(CheckpointTest, KillAndResumeIsBitwiseIdenticalToUninterruptedRun) {
  struct ArenaRestore {
    ~ArenaRestore() { SetArenaEnabled(true); }
  } restore;
  for (const bool arena : {true, false}) {
    SCOPED_TRACE(arena ? "arena on" : "arena off");
    SetArenaEnabled(arena);
    ExpectKillAndResumeBitwise();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Contract #6 across ISA caps: within one build, a checkpoint written under
// the widest ISA tier resumes bitwise with dispatch capped at AVX2 or at
// scalar. Every GEMM and vec-math tier computes the same chains, so the cap
// must not show in the parameters or the loss trace.
TEST(CheckpointTest, ResumeIsBitwiseAcrossIsaCaps) {
  auto stream = TinyDigitsStream(3);
  core::CdclTrainer uninterrupted(TinyCdclOptions());
  ASSERT_TRUE(cl::RunContinualExperiment(&uninterrupted, stream).ok());

  TempDir dir;
  core::CdclTrainer writer(TinyCdclOptions());
  cl::ExperimentOptions stop_after_first;
  stop_after_first.stop_requested = [&writer] {
    return writer.tasks_seen() >= 1;
  };
  ASSERT_TRUE(cl::RunContinualExperiment(&writer, stream, stop_after_first).ok());
  ASSERT_TRUE(SaveTrainer(dir.path(), writer, 1).ok());

  for (kernels::IsaCap cap : {kernels::IsaCap::kAvx2, kernels::IsaCap::kScalar}) {
    kernels::SetIsaCap(cap);
    core::CdclTrainer resumed(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &resumed);
    cl::ExperimentOptions resume;
    resume.first_task = info.ok() ? info->next_task : 0;
    const bool finished =
        info.ok() && cl::RunContinualExperiment(&resumed, stream, resume).ok();
    kernels::SetIsaCap(kernels::IsaCap::kAvx512);
    ASSERT_TRUE(finished) << "cap=" << static_cast<int>(cap);
    EXPECT_TRUE(BitwiseEqual(FlatParams(resumed.model()),
                             FlatParams(uninterrupted.model())))
        << "cap=" << static_cast<int>(cap) << ": parameters diverged";
    EXPECT_TRUE(BitwiseEqual(resumed.loss_trace(), uninterrupted.loss_trace()))
        << "cap=" << static_cast<int>(cap) << ": loss trajectory diverged";
  }
}

// ---------------------------------------------------------------------------
// Deterministic fault matrix: crash at every syscall of the commit protocol
// ---------------------------------------------------------------------------

struct CrashCase {
  const char* point;
  fault::Kind kind;
};

class CrashPointSweep : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashPointSweep, SaveDiesRestoreFallsBackToAVerifiedGeneration) {
  const CrashCase param = GetParam();
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  const std::vector<float> state1 = FlatParams(trainer.model());

  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());

  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());
  const std::vector<float> state2 = FlatParams(trainer.model());
  ASSERT_FALSE(BitwiseEqual(state1, state2));

  // The process "dies" at the parametrized syscall while committing
  // generation 2. No cleanup runs — the directory is left exactly as a
  // SIGKILL there would leave it.
  fault::Plan plan;
  plan.point = param.point;
  plan.kind = param.kind;
  fault::Arm(plan);
  const Result<CheckpointInfo> died = SaveTrainer(dir.path(), trainer, 2);
  fault::Disarm();
  ASSERT_FALSE(died.ok()) << param.point;
  EXPECT_TRUE(ckpt::IsInjectedCrash(died.status()))
      << param.point << ": " << died.status().ToString();

  // Restore from the wreckage: some generation must verify. Faults before
  // the data file's rename leave only generation 1; faults after it may
  // legitimately surface the durable generation 2 — either way the restored
  // bits must match the state that generation captured.
  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok()) << param.point << ": " << info.status().ToString();
  ASSERT_TRUE(info->generation == 1 || info->generation == 2) << param.point;
  const std::vector<float>& want = info->generation == 1 ? state1 : state2;
  EXPECT_EQ(info->next_task, info->generation == 1 ? 1 : 2) << param.point;
  EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()), want))
      << param.point << ": restored generation " << info->generation
      << " does not match the state that generation captured";
}

INSTANTIATE_TEST_SUITE_P(
    AllCommitSyscalls, CrashPointSweep,
    ::testing::Values(
        CrashCase{"ckpt.write.data", fault::Kind::kCrash},
        CrashCase{"ckpt.write.data", fault::Kind::kShortWrite},  // torn tail
        CrashCase{"ckpt.fsync.data", fault::Kind::kCrash},
        CrashCase{"ckpt.rename.data", fault::Kind::kCrash},
        CrashCase{"ckpt.fsync.dir.data", fault::Kind::kCrash},
        CrashCase{"ckpt.write.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.write.manifest", fault::Kind::kShortWrite},
        CrashCase{"ckpt.fsync.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.rename.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.fsync.dir.manifest", fault::Kind::kCrash}));

TEST(CheckpointFaultTest, InjectedErrnoFailsCleanlyAndNextSaveSucceeds) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;

  for (const int err : {ENOSPC, EIO}) {
    fault::Plan plan;
    plan.point = "ckpt.write.data";
    plan.kind = fault::Kind::kErrno;
    plan.error = err;
    fault::Arm(plan);
    const Result<CheckpointInfo> failed = SaveTrainer(dir.path(), trainer, 1);
    fault::Disarm();
    ASSERT_FALSE(failed.ok()) << err;
    EXPECT_FALSE(ckpt::IsInjectedCrash(failed.status())) << err;
  }

  // Unlike a crash, an errno failure unwinds normally: the temp file is
  // cleaned up and the very next save commits generation 1 as if nothing
  // happened.
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->generation, 1u);
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 1u);
}

// Rehearsal records stored as bf16 or int8 codes survive save + restore code
// for code: re-saving the restored trainer reproduces the file byte for byte,
// whatever storage mode is active at restore time.
TEST(CheckpointTest, CompactRecordsRoundTripByteForByte) {
  for (kernels::GemmPrecision mode :
       {kernels::GemmPrecision::kBf16, kernels::GemmPrecision::kInt8}) {
    auto stream = TinyDigitsStream(1);
    core::CdclTrainer trainer(TinyCdclOptions());
    kernels::SetGemmPrecision(mode);
    const Status observed = trainer.ObserveTask(stream.task(0));
    kernels::SetGemmPrecision(kernels::GemmPrecision::kFp32);
    ASSERT_TRUE(observed.ok()) << observed.ToString();
    ASSERT_GT(trainer.memory().size(), 0);
    ASSERT_EQ(trainer.memory().records()[0].source_logits.mode(), mode);

    TempDir first, second;
    const Result<CheckpointInfo> saved = SaveTrainer(first.path(), trainer, 1);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    core::CdclTrainer restored(TinyCdclOptions());
    ASSERT_TRUE(RestoreTrainer(first.path(), &restored).ok());
    EXPECT_EQ(restored.memory().records()[0].source_logits.mode(), mode);
    const Result<CheckpointInfo> resaved =
        SaveTrainer(second.path(), restored, 1);
    ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
    EXPECT_EQ(ReadAll(resaved->path), ReadAll(saved->path))
        << static_cast<int>(mode);
  }
}

// Offset of the first record's source_logits element count inside a memory
// section payload (see the kMemory layout in checkpoint.cc).
size_t FirstLogitCountOffset(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  int64_t i64 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  std::vector<float> floats;
  r.GetI64(&i64);  // num_tasks
  r.GetU64(&u64);  // record count
  for (int image = 0; image < 2; ++image) {
    r.GetU8(&u8);
    for (uint8_t d = 0; d < u8; ++d) r.GetI64(&i64);
    r.GetFloats(&floats);
  }
  for (int field = 0; field < 3; ++field) r.GetI64(&i64);  // labels, task id
  r.GetU8(&u8);  // CompactFloats mode
  return payload.size() - r.remaining();
}

// Every count field the parser sizes a vector from, forged to the maximum
// value inside an otherwise CRC-valid section: restore must reject the
// generation with an IoError instead of attempting the allocation.
TEST(CheckpointCorruptionTest, ForgedCountsInValidSectionsAreRejected) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  ASSERT_GT(trainer.memory().size(), 0);
  TempDir dir;
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
  ASSERT_TRUE(saved.ok());
  std::vector<ckpt::Section> good;
  ASSERT_TRUE(ckpt::DecodeSections(ReadAll(saved->path), &good).ok());

  struct Forgery {
    const char* name;
    uint32_t tag;
    size_t offset;  // first byte overwritten with 0xFF
    size_t width;
  };
  std::vector<uint8_t> memory_payload;
  for (const ckpt::Section& section : good) {
    if (section.tag == ckpt::kMemory) memory_payload = section.payload;
  }
  const Forgery forgeries[] = {
      // tasks_seen and the class-count length must agree, so forge both.
      {"meta class counts", ckpt::kMeta, 12, 16},
      {"model parameters", ckpt::kModel, 0, 8},
      {"optimizer states", ckpt::kOptim, 0, 8},
      {"memory records", ckpt::kMemory, 8, 8},
      {"record logits", ckpt::kMemory, FirstLogitCountOffset(memory_payload),
       8},
  };
  for (const Forgery& forgery : forgeries) {
    std::vector<ckpt::Section> sections = good;
    for (ckpt::Section& section : sections) {
      if (section.tag != forgery.tag) continue;
      ASSERT_LE(forgery.offset + forgery.width, section.payload.size());
      for (size_t i = 0; i < forgery.width; ++i) {
        section.payload[forgery.offset + i] = 0xFF;
      }
    }
    WriteAll(saved->path, ckpt::EncodeSections(sections));
    core::CdclTrainer restored(TinyCdclOptions());
    Result<CheckpointInfo> info = Status::Internal("not run");
    EXPECT_NO_THROW(info = RestoreTrainer(dir.path(), &restored))
        << forgery.name;
    ASSERT_FALSE(info.ok()) << forgery.name;
    EXPECT_EQ(info.status().code(), StatusCode::kIoError) << forgery.name;
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz of the decoders: container, sections, ByteReader
// ---------------------------------------------------------------------------

/// Arms the allocation probe for its scope.
class AllocationProbe {
 public:
  AllocationProbe() {
    t_probe_largest = 0;
    t_probe_armed = true;
  }
  ~AllocationProbe() { t_probe_armed = false; }
  size_t largest() const { return t_probe_largest; }
};

/// A count or length field at `offset` (`width` 4 or 8 bytes), with the
/// smallest encoded size of one element it counts, so that
/// (bytes after the field) / elem_bytes is the largest count the decoder's
/// bound can accept: the "limit" the fuzz probes on either side of.
struct CountField {
  size_t offset;
  size_t width;
  size_t elem_bytes;
};

/// Walks a well-formed section payload along the kMeta/kModel/kOptim/
/// kMemory layouts in checkpoint.cc and records every count field in it.
class CountFieldWalker {
 public:
  explicit CountFieldWalker(const std::vector<uint8_t>& payload)
      : size_(payload.size()), r_(payload) {}

  /// Records the u64 count at the cursor and steps over it, and over the
  /// elements it counts when they follow it directly.
  uint64_t Count(size_t elem_bytes, bool elements_follow) {
    fields_.push_back({size_ - r_.remaining(), 8, elem_bytes});
    uint64_t n = 0;
    r_.GetU64(&n);
    if (elements_follow) Skip(n * elem_bytes);
    return n;
  }
  uint8_t U8() {
    uint8_t v = 0;
    r_.GetU8(&v);
    return v;
  }
  void Skip(uint64_t bytes) {
    for (uint8_t v = 0; bytes > 0 && r_.GetU8(&v); --bytes) {
    }
  }
  void Tensor() {  // ndim, dims, float count, floats
    Skip(8 * U8());
    Count(sizeof(float), true);
  }
  void Compact() {  // mode, count, scale, codes of the mode's width
    const uint8_t mode = U8();
    const size_t width = mode == 1 ? 2 : mode == 2 ? 1 : 4;
    Skip(sizeof(float) + Count(width, false) * width);
  }

  const std::vector<CountField>& fields() const { return fields_; }

 private:
  size_t size_;
  ByteReader r_;
  std::vector<CountField> fields_;
};

std::vector<CountField> SectionCountFields(const ckpt::Section& section) {
  CountFieldWalker w(section.payload);
  switch (section.tag) {
    case ckpt::kMeta:  // version, next_task, tasks_seen, class counts
      w.Skip(4 + 8 + 8);
      w.Count(sizeof(int64_t), true);
      break;
    case ckpt::kModel:  // name, requires_grad, tensor
      for (uint64_t i = 0, n = w.Count(18, false); i < n; ++i) {
        w.Count(1, true);
        w.Skip(1);
        w.Tensor();
      }
      break;
    case ckpt::kOptim:  // present, step, m, v
      for (uint64_t i = 0, n = w.Count(25, false); i < n; ++i) {
        w.Skip(1 + 8);
        w.Count(sizeof(float), true);
        w.Count(sizeof(float), true);
      }
      break;
    case ckpt::kMemory:  // num_tasks, then the records
      w.Skip(8);
      for (uint64_t i = 0, n = w.Count(2 * 9 + 3 * 8 + 3 * 13 + 8 + 4, false);
           i < n; ++i) {
        w.Tensor();
        w.Tensor();
        w.Skip(3 * 8);  // label, task_label, task_id
        w.Compact();
        w.Compact();
        w.Skip(8);  // logit_tasks
        w.Compact();
        w.Skip(4);  // confidence
      }
      break;
    default:
      break;
  }
  return w.fields();
}

/// Container-level count fields: the u32 section count after the magic and
/// each section's u64 payload length.
std::vector<CountField> ContainerCountFields(
    const std::vector<ckpt::Section>& sections) {
  std::vector<CountField> fields = {{8, 4, 16}};
  size_t at = 12;
  for (const ckpt::Section& section : sections) {
    fields.push_back({at + 4, 8, 1});
    at += 4 + 8 + section.payload.size() + 4;
  }
  return fields;
}

/// One random mutation of `bytes`: bit flips, a truncation, a splice with
/// `other`, or a count field set to 0, limit-1, limit, limit+1, UINT32_MAX
/// or UINT64_MAX.
void Mutate(std::vector<uint8_t>* bytes, const std::vector<uint8_t>& other,
            const std::vector<CountField>& fields, Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0: {
      if (bytes->empty()) break;
      for (uint64_t f = 1 + rng->NextBelow(4); f > 0; --f) {
        (*bytes)[rng->NextBelow(bytes->size())] ^=
            static_cast<uint8_t>(1u << rng->NextBelow(8));
      }
      break;
    }
    case 1:
      bytes->resize(rng->NextBelow(bytes->size() + 1));
      break;
    case 2:
      bytes->resize(rng->NextBelow(bytes->size() + 1));
      bytes->insert(bytes->end(),
                    other.begin() + static_cast<std::ptrdiff_t>(
                                        rng->NextBelow(other.size() + 1)),
                    other.end());
      break;
    default: {
      if (fields.empty()) break;
      const CountField& f = fields[rng->NextBelow(fields.size())];
      if (f.offset + f.width > bytes->size()) break;
      const uint64_t limit =
          (bytes->size() - f.offset - f.width) / f.elem_bytes;
      const uint64_t values[] = {0,         limit - 1,  limit,
                                 limit + 1, UINT32_MAX, UINT64_MAX};
      const uint64_t v = values[rng->NextBelow(6)];
      for (size_t k = 0; k < f.width; ++k) {
        (*bytes)[f.offset + k] = static_cast<uint8_t>(v >> (8 * k));
      }
      break;
    }
  }
}

// Mutants of real checkpoints (fp32, bf16 and int8 rehearsal codecs). Three
// in four mutate one section's payload and re-seal its CRC, so the section
// parsers, ReadCompactFloats and ByteReader see them; the rest mutate the
// container bytes as stored. Every case must return an IoError or a valid
// decode: no throw, no abort (ASan/UBSan run this suite in verify.sh), and
// no single allocation larger than the mutant itself.
TEST(CheckpointFuzzTest, MutatedCheckpointsNeverThrowOrOverAllocate) {
  struct Seed {
    std::vector<uint8_t> bytes;
    std::vector<ckpt::Section> sections;
  };
  std::vector<Seed> corpus;
  for (kernels::GemmPrecision mode :
       {kernels::GemmPrecision::kFp32, kernels::GemmPrecision::kBf16,
        kernels::GemmPrecision::kInt8}) {
    auto stream = TinyDigitsStream(1);
    core::CdclOptions options = TinyCdclOptions();
    options.base.memory_size = 4;  // small seeds, more cases per second
    core::CdclTrainer trainer(options);
    kernels::SetGemmPrecision(mode);
    const Status observed = trainer.ObserveTask(stream.task(0));
    kernels::SetGemmPrecision(kernels::GemmPrecision::kFp32);
    ASSERT_TRUE(observed.ok()) << observed.ToString();
    ASSERT_GT(trainer.memory().size(), 0);
    TempDir dir;
    const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    Seed seed;
    seed.bytes = ReadAll(saved->path);
    ASSERT_TRUE(ckpt::DecodeSections(seed.bytes, &seed.sections).ok());
    ASSERT_TRUE(ckpt::VerifyCheckpoint(seed.bytes).ok());
    corpus.push_back(std::move(seed));
  }

  Rng rng(4321);
  constexpr int kCases = 3000;
  int decoded = 0, malformed = 0;
  for (int c = 0; c < kCases; ++c) {
    const Seed& seed = corpus[rng.NextBelow(corpus.size())];
    const Seed& other = corpus[rng.NextBelow(corpus.size())];
    std::vector<uint8_t> bytes;
    if (rng.NextBelow(4) == 0) {
      bytes = seed.bytes;
      Mutate(&bytes, other.bytes, ContainerCountFields(seed.sections), &rng);
    } else {
      std::vector<ckpt::Section> sections = seed.sections;
      ckpt::Section& target = sections[rng.NextBelow(sections.size())];
      const std::vector<CountField> fields = SectionCountFields(target);
      Mutate(&target.payload,
             other.sections[rng.NextBelow(other.sections.size())].payload,
             fields, &rng);
      bytes = ckpt::EncodeSections(sections);
    }

    Status st = Status::Internal("not run");
    size_t largest = 0;
    {
      AllocationProbe probe;
      try {
        st = ckpt::VerifyCheckpoint(bytes);
      } catch (...) {
        ADD_FAILURE() << "case " << c << ": decoder threw";
      }
      largest = probe.largest();
    }
    ASSERT_LE(largest, bytes.size()) << "case " << c;
    if (st.ok()) {
      ++decoded;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kIoError)
          << "case " << c << ": " << st.ToString();
      if (st.ToString().find("malformed") != std::string::npos) ++malformed;
    }
  }
  // Both outcomes must be common, or the mutants never reached the parsers.
  EXPECT_GT(decoded, kCases / 20);
  EXPECT_GT(malformed, kCases / 20);
}

// A CRC-valid meta section whose first class count is forged to 2^40 or
// INT64_MAX still decodes (counts are only checked for > 0 there); the
// restore must reject it against the stored task heads before it builds a
// head from it: a Status, no throw, no allocation larger than the file.
TEST(CheckpointFuzzTest, ForgedClassCountIsRejectedBeforeAllocating) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  std::vector<ckpt::Section> good;
  ASSERT_TRUE(ckpt::DecodeSections(ReadAll(saved->path), &good).ok());

  for (const int64_t forged : {int64_t{1} << 40, INT64_MAX}) {
    std::vector<ckpt::Section> sections = good;
    for (ckpt::Section& section : sections) {
      if (section.tag != ckpt::kMeta) continue;
      // version u32, next_task i64, tasks_seen i64, count u64, then task 0.
      const size_t at = 4 + 8 + 8 + 8;
      ASSERT_LE(at + 8, section.payload.size());
      for (size_t k = 0; k < 8; ++k) {
        section.payload[at + k] =
            static_cast<uint8_t>(static_cast<uint64_t>(forged) >> (8 * k));
      }
    }
    const std::vector<uint8_t> bytes = ckpt::EncodeSections(sections);
    ASSERT_TRUE(ckpt::VerifyCheckpoint(bytes).ok()) << forged;
    WriteAll(saved->path, bytes);

    core::CdclTrainer restored(TinyCdclOptions());
    Result<CheckpointInfo> info = Status::Internal("not run");
    size_t largest = 0;
    {
      AllocationProbe probe;
      try {
        info = RestoreTrainer(dir.path(), &restored);
      } catch (...) {
        ADD_FAILURE() << forged << ": restore threw";
      }
      largest = probe.largest();
    }
    ASSERT_FALSE(info.ok()) << forged;
    EXPECT_EQ(info.status().code(), StatusCode::kIoError) << forged;
    EXPECT_LE(largest, bytes.size()) << forged;
    EXPECT_EQ(restored.model().num_tasks(), 0) << forged;
  }
}

// ---------------------------------------------------------------------------
// On-disk corruption: CRC detection and generation fallback
// ---------------------------------------------------------------------------

TEST(CheckpointCorruptionTest, CorruptNewestFallsBackCorruptAllFails) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  const std::vector<float> state1 = FlatParams(trainer.model());

  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());
  const Result<CheckpointInfo> second = SaveTrainer(dir.path(), trainer, 2);
  ASSERT_TRUE(second.ok());
  const std::vector<uint8_t> good_gen2 = ReadAll(second->path);

  struct Corruption {
    const char* name;
    std::vector<uint8_t> (*mutate)(std::vector<uint8_t>);
  };
  const Corruption corruptions[] = {
      {"truncated to half",
       [](std::vector<uint8_t> b) {
         b.resize(b.size() / 2);
         return b;
       }},
      {"bit flip mid-file",
       [](std::vector<uint8_t> b) {
         b[b.size() / 2] ^= 0x01;
         return b;
       }},
      {"bad magic",
       [](std::vector<uint8_t> b) {
         b[0] ^= 0xFF;
         return b;
       }},
      {"empty file", [](std::vector<uint8_t>) {
         return std::vector<uint8_t>();
       }}};

  for (const Corruption& corruption : corruptions) {
    WriteAll(second->path, corruption.mutate(good_gen2));
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_TRUE(info.ok()) << corruption.name << ": "
                           << info.status().ToString();
    EXPECT_EQ(info->generation, 1u) << corruption.name;
    EXPECT_EQ(info->next_task, 1) << corruption.name;
    EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()), state1))
        << corruption.name;
  }
  WriteAll(second->path, good_gen2);  // heal generation 2 again

  // A torn manifest alone must not matter: the directory scan finds the
  // newest good generation regardless.
  {
    const std::string manifest_path = dir.path() + "/MANIFEST";
    std::vector<uint8_t> manifest = ReadAll(manifest_path);
    manifest[manifest.size() / 2] ^= 0x20;
    WriteAll(manifest_path, manifest);
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->generation, 2u);
  }

  // Every generation corrupt -> a hard error, never silent garbage.
  {
    std::vector<uint64_t> gens;
    ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
    for (const uint64_t g : gens) {
      const std::string path =
          dir.path() + "/" + ckpt::GenerationFileName(g);
      std::vector<uint8_t> bytes = ReadAll(path);
      bytes[bytes.size() / 3] ^= 0x08;
      WriteAll(path, bytes);
    }
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kIoError);
  }
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RetentionKeepsNewestGenerations) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;

  SaveOptions keep2;
  keep2.retain = 2;
  for (int64_t next = 1; next <= 4; ++next) {
    const Result<CheckpointInfo> saved =
        SaveTrainer(dir.path(), trainer, next, keep2);
    ASSERT_TRUE(saved.ok()) << next;
    EXPECT_EQ(saved->generation, static_cast<uint64_t>(next));
  }
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 3u);
  EXPECT_EQ(gens[1], 4u);

  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->generation, 4u);
  EXPECT_EQ(info->next_task, 4);
}

}  // namespace
}  // namespace cdcl
