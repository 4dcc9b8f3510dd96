#include "ckpt/checkpoint.h"

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "ckpt/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cdcl {
namespace ckpt {
namespace {

constexpr uint32_t kFormatVersion = 1;

/// True when `count` elements of at least `min_bytes` encoded bytes each fit
/// in what is left of `r`. Checked before every count-sized loop, so a
/// corrupt count is rejected up front. Vectors whose element is wider than
/// its encoding (structs) still grow one decoded element at a time: the
/// bytes actually present, not the count, size them.
bool CountFits(const ByteReader& r, uint64_t count, size_t min_bytes) {
  return count <= r.remaining() / min_bytes;
}

/// Reads `ndim` non-negative i64 dims, each backed by 8 input bytes.
bool ReadDims(ByteReader* r, uint8_t ndim, std::vector<int64_t>* dims) {
  if (!CountFits(*r, ndim, sizeof(int64_t))) return false;
  dims->resize(ndim);
  for (auto& d : *dims) {
    if (!r->GetI64(&d) || d < 0) return false;
  }
  return true;
}

// --- encode helpers --------------------------------------------------------

void WriteTensor(ByteWriter* w, const Tensor& t) {
  w->PutU8(static_cast<uint8_t>(t.ndim()));
  for (int64_t i = 0; i < t.ndim(); ++i) w->PutI64(t.dim(i));
  w->PutFloats(t.data(), static_cast<size_t>(t.NumElements()));
}

bool ReadTensor(ByteReader* r, Tensor* out) {
  uint8_t ndim = 0;
  std::vector<int64_t> dims;
  std::vector<float> values;
  if (!r->GetU8(&ndim) || !ReadDims(r, ndim, &dims) || !r->GetFloats(&values)) {
    return false;
  }
  // The dims must multiply out to the stored count; dividing instead of
  // multiplying keeps a forged dim from overflowing the product.
  uint64_t rest = values.size();
  bool has_zero = false;
  for (int64_t d : dims) {
    if (d == 0) {
      has_zero = true;
    } else if (rest % static_cast<uint64_t>(d) != 0) {
      return false;
    } else {
      rest /= static_cast<uint64_t>(d);
    }
  }
  if (has_zero ? !values.empty() : rest != 1) return false;
  *out = Tensor::FromVector(Shape(std::move(dims)), std::move(values));
  return true;
}

void WriteCompactFloats(ByteWriter* w, const cl::CompactFloats& cf) {
  w->PutU8(static_cast<uint8_t>(cf.mode()));
  w->PutU64(cf.size());
  w->PutF32(cf.scale());
  switch (cf.mode()) {
    case kernels::GemmPrecision::kBf16:
      for (uint16_t v : cf.raw_bf16()) {
        w->PutU8(static_cast<uint8_t>(v & 0xFF));
        w->PutU8(static_cast<uint8_t>(v >> 8));
      }
      break;
    case kernels::GemmPrecision::kInt8:
      w->PutBytes(cf.raw_i8().data(), cf.raw_i8().size());
      break;
    default:
      for (float v : cf.raw_f32()) w->PutF32(v);
      break;
  }
}

bool ReadCompactFloats(ByteReader* r, cl::CompactFloats* out) {
  uint8_t mode_raw = 0;
  uint64_t n = 0;
  float scale = 0.0f;
  if (!r->GetU8(&mode_raw) || mode_raw > 2 || !r->GetU64(&n) ||
      !r->GetF32(&scale)) {
    return false;
  }
  const auto mode = static_cast<kernels::GemmPrecision>(mode_raw);
  std::vector<float> f32;
  std::vector<uint16_t> bf16;
  std::vector<int8_t> i8;
  switch (mode) {
    case kernels::GemmPrecision::kBf16: {
      if (!CountFits(*r, n, sizeof(uint16_t))) return false;
      bf16.resize(static_cast<size_t>(n));
      for (auto& v : bf16) {
        uint8_t lo = 0, hi = 0;
        if (!r->GetU8(&lo) || !r->GetU8(&hi)) return false;
        v = static_cast<uint16_t>(lo | (static_cast<uint16_t>(hi) << 8));
      }
      break;
    }
    case kernels::GemmPrecision::kInt8:
      if (!CountFits(*r, n, sizeof(int8_t))) return false;
      i8.resize(static_cast<size_t>(n));
      if (!r->GetBytes(i8.data(), i8.size())) return false;
      break;
    default: {
      if (!CountFits(*r, n, sizeof(float))) return false;
      f32.resize(static_cast<size_t>(n));
      for (auto& v : f32) {
        if (!r->GetF32(&v)) return false;
      }
      break;
    }
  }
  *out = cl::CompactFloats::FromRaw(mode, static_cast<size_t>(n),
                                    std::move(f32), std::move(bf16),
                                    std::move(i8), scale);
  return true;
}

// --- parsed (pre-apply) representation -------------------------------------
// Parsing is PURE: nothing touches the trainer until an entire generation
// decoded, CRC-verified, and structurally parsed. Only then does Apply
// mutate — so a corrupt candidate can be skipped and an older one tried
// against the still-pristine trainer.

struct ParsedParam {
  std::string name;
  bool requires_grad = false;
  std::vector<int64_t> dims;
  std::vector<float> values;
};

struct ParsedCheckpoint {
  int64_t next_task = 0;
  std::vector<int64_t> classes_per_task;
  std::vector<ParsedParam> params;
  std::vector<optim::Adam::ExportedState> optim;
  Rng::StateSnapshot rng{};
  int64_t memory_num_tasks = 0;
  std::vector<cl::MemoryRecord> records;
  std::vector<uint8_t> extra;
};

Status MalformedSection(const char* which) {
  return Status::IoError(std::string("checkpoint: malformed ") + which +
                         " section");
}

Status ParseCheckpoint(const std::vector<uint8_t>& bytes,
                       ParsedCheckpoint* out) {
  std::vector<Section> sections;
  CDCL_RETURN_NOT_OK(DecodeSections(bytes, &sections));
  std::map<uint32_t, const Section*> by_tag;
  for (const Section& s : sections) by_tag[s.tag] = &s;
  for (uint32_t tag : {kMeta, kModel, kOptim, kRng, kMemory, kExtra}) {
    if (by_tag.count(tag) == 0) {
      return Status::IoError("checkpoint: missing section tag " +
                             std::to_string(tag));
    }
  }

  {
    ByteReader r(by_tag[kMeta]->payload);
    uint32_t version = 0;
    int64_t tasks_seen = 0;
    uint64_t count = 0;
    if (!r.GetU32(&version) || version != kFormatVersion) {
      return Status::IoError("checkpoint: unsupported format version");
    }
    if (!r.GetI64(&out->next_task) || !r.GetI64(&tasks_seen) ||
        !r.GetU64(&count) || tasks_seen != static_cast<int64_t>(count) ||
        !CountFits(r, count, sizeof(int64_t))) {
      return MalformedSection("meta");
    }
    out->classes_per_task.resize(static_cast<size_t>(count));
    for (auto& c : out->classes_per_task) {
      if (!r.GetI64(&c) || c <= 0) return MalformedSection("meta");
    }
  }

  {
    ByteReader r(by_tag[kModel]->payload);
    uint64_t count = 0;
    // name length u64 + requires_grad u8 + ndim u8 + float count u64.
    if (!r.GetU64(&count) || !CountFits(r, count, 18)) {
      return MalformedSection("model");
    }
    for (uint64_t i = 0; i < count; ++i) {
      ParsedParam p;
      uint8_t rg = 0, ndim = 0;
      if (!r.GetString(&p.name) || !r.GetU8(&rg) || !r.GetU8(&ndim) ||
          !ReadDims(&r, ndim, &p.dims) || !r.GetFloats(&p.values)) {
        return MalformedSection("model");
      }
      p.requires_grad = rg != 0;
      out->params.push_back(std::move(p));
    }
  }

  {
    ByteReader r(by_tag[kOptim]->payload);
    uint64_t count = 0;
    // present u8 + step i64 + two float counts u64.
    if (!r.GetU64(&count) || !CountFits(r, count, 25)) {
      return MalformedSection("optim");
    }
    for (uint64_t i = 0; i < count; ++i) {
      optim::Adam::ExportedState e;
      uint8_t present = 0;
      if (!r.GetU8(&present) || !r.GetI64(&e.step) || !r.GetFloats(&e.m) ||
          !r.GetFloats(&e.v) || e.m.size() != e.v.size()) {
        return MalformedSection("optim");
      }
      e.present = present != 0;
      out->optim.push_back(std::move(e));
    }
  }

  {
    ByteReader r(by_tag[kRng]->payload);
    uint8_t cached = 0;
    for (auto& s : out->rng.state) {
      if (!r.GetU64(&s)) return MalformedSection("rng");
    }
    if (!r.GetU8(&cached) || !r.GetF64(&out->rng.cached_gaussian)) {
      return MalformedSection("rng");
    }
    out->rng.has_cached_gaussian = cached != 0;
  }

  {
    ByteReader r(by_tag[kMemory]->payload);
    uint64_t count = 0;
    // Two tensors (ndim u8 + float count u64 each), three i64 labels, three
    // CompactFloats headers (mode u8 + count u64 + scale f32 each), the
    // logit_tasks i64 and the confidence f32.
    if (!r.GetI64(&out->memory_num_tasks) || !r.GetU64(&count) ||
        !CountFits(r, count, 2 * 9 + 3 * 8 + 3 * 13 + 8 + 4)) {
      return MalformedSection("memory");
    }
    for (uint64_t i = 0; i < count; ++i) {
      cl::MemoryRecord rec;
      if (!ReadTensor(&r, &rec.source_image) ||
          !ReadTensor(&r, &rec.target_image) || !r.GetI64(&rec.label) ||
          !r.GetI64(&rec.task_label) || !r.GetI64(&rec.task_id) ||
          !ReadCompactFloats(&r, &rec.source_logits) ||
          !ReadCompactFloats(&r, &rec.target_logits) ||
          !r.GetI64(&rec.logit_tasks) || !ReadCompactFloats(&r, &rec.feature) ||
          !r.GetF32(&rec.confidence)) {
        return MalformedSection("memory");
      }
      out->records.push_back(std::move(rec));
    }
  }

  out->extra = by_tag[kExtra]->payload;
  return Status::Ok();
}

/// The meta section's class counts size the task heads RestoreTaskStructure
/// builds, before the parameter check below can reject the file, so a
/// CRC-valid forged count must be caught first. Each count must be the
/// width of its task's stored TIL head and CIL block weights (registered as
/// til_head.head<t> and cil_head.block<t>, see CompactTransformer), each
/// `feature_dim` rows high and backed by its floats. Then no head the
/// restore allocates is larger than a tensor the file holds, and the counts'
/// sum is the stored CIL width.
Status CheckClassCounts(const ParsedCheckpoint& parsed, int64_t feature_dim) {
  std::map<std::string, const ParsedParam*> by_name;
  for (const ParsedParam& p : parsed.params) by_name[p.name] = &p;
  auto stored_width = [&by_name, feature_dim](const std::string& name) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) return int64_t{-1};
    const ParsedParam& p = *it->second;
    const int64_t floats = static_cast<int64_t>(p.values.size());
    if (p.dims.size() != 2 || p.dims[0] != feature_dim ||
        floats % feature_dim != 0 || floats / feature_dim != p.dims[1]) {
      return int64_t{-1};
    }
    return p.dims[1];
  };
  for (size_t t = 0; t < parsed.classes_per_task.size(); ++t) {
    const int64_t classes = parsed.classes_per_task[t];
    const std::string task = std::to_string(t);
    if (stored_width("til_head.head" + task + ".weight") != classes ||
        stored_width("cil_head.block" + task + ".weight") != classes) {
      return Status::IoError("checkpoint: class count of task " + task +
                             " does not match its stored heads");
    }
  }
  return Status::Ok();
}

Status ApplyCheckpoint(const ParsedCheckpoint& parsed,
                       baselines::TrainerBase* trainer) {
  if (trainer->model().num_tasks() != 0 || trainer->tasks_seen() != 0) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a freshly-constructed trainer");
  }
  if (static_cast<int64_t>(parsed.records.size()) >
      trainer->memory().capacity()) {
    return Status::Internal(
        "checkpoint rehearsal memory exceeds trainer capacity (options "
        "mismatch?)");
  }

  CDCL_RETURN_NOT_OK(
      CheckClassCounts(parsed, trainer->model().feature_dim()));
  trainer->RestoreTaskStructure(parsed.classes_per_task);

  auto named = trainer->mutable_model()->NamedParameters();
  if (named.size() != parsed.params.size()) {
    return Status::Internal(
        "checkpoint/model parameter count mismatch (options mismatch?)");
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const ParsedParam& p = parsed.params[i];
    Tensor& t = named[i].tensor;
    if (named[i].name != p.name ||
        t.NumElements() != static_cast<int64_t>(p.values.size()) ||
        t.requires_grad() != p.requires_grad) {
      return Status::Internal("checkpoint/model structure mismatch at '" +
                             named[i].name + "'");
    }
    std::memcpy(t.data(), p.values.data(), p.values.size() * sizeof(float));
  }

  const auto trainable = trainer->mutable_model()->TrainableParameters();
  if (trainable.size() != parsed.optim.size()) {
    return Status::Internal("checkpoint/optimizer parameter count mismatch");
  }
  for (size_t i = 0; i < trainable.size(); ++i) {
    if (parsed.optim[i].present &&
        parsed.optim[i].m.size() !=
            static_cast<size_t>(trainable[i].NumElements())) {
      return Status::Internal("checkpoint/optimizer moment size mismatch");
    }
  }
  trainer->mutable_optimizer()->ImportState(parsed.optim);

  trainer->mutable_rng()->LoadState(parsed.rng);
  trainer->mutable_memory()->RestoreState(parsed.records,
                                          parsed.memory_num_tasks);

  ByteReader extra(parsed.extra);
  if (!trainer->ImportExtraState(&extra)) {
    return Status::Internal("checkpoint: malformed trainer extra state");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeTrainer(const baselines::TrainerBase& trainer,
                                   int64_t next_task) {
  std::vector<Section> sections;

  {
    ByteWriter w;
    w.PutU32(kFormatVersion);
    w.PutI64(next_task);
    w.PutI64(trainer.tasks_seen());
    w.PutU64(static_cast<uint64_t>(trainer.tasks_seen()));
    for (int64_t t = 0; t < trainer.tasks_seen(); ++t) {
      w.PutI64(trainer.model().task_classes(t));
    }
    sections.push_back({kMeta, w.TakeBytes()});
  }

  {
    ByteWriter w;
    const auto named = trainer.model().NamedParameters();
    w.PutU64(named.size());
    for (const auto& np : named) {
      w.PutString(np.name);
      w.PutU8(np.tensor.requires_grad() ? 1 : 0);
      WriteTensor(&w, np.tensor);
    }
    sections.push_back({kModel, w.TakeBytes()});
  }

  {
    ByteWriter w;
    const auto states = trainer.optimizer().ExportState();
    w.PutU64(states.size());
    for (const auto& e : states) {
      w.PutU8(e.present ? 1 : 0);
      w.PutI64(e.step);
      w.PutFloats(e.m);
      w.PutFloats(e.v);
    }
    sections.push_back({kOptim, w.TakeBytes()});
  }

  {
    ByteWriter w;
    const Rng::StateSnapshot snap = trainer.rng().SaveState();
    for (uint64_t s : snap.state) w.PutU64(s);
    w.PutU8(snap.has_cached_gaussian ? 1 : 0);
    w.PutF64(snap.cached_gaussian);
    sections.push_back({kRng, w.TakeBytes()});
  }

  {
    ByteWriter w;
    const cl::RehearsalMemory& mem = trainer.memory();
    w.PutI64(mem.num_tasks());
    w.PutU64(mem.records().size());
    for (const cl::MemoryRecord& rec : mem.records()) {
      WriteTensor(&w, rec.source_image);
      WriteTensor(&w, rec.target_image);
      w.PutI64(rec.label);
      w.PutI64(rec.task_label);
      w.PutI64(rec.task_id);
      WriteCompactFloats(&w, rec.source_logits);
      WriteCompactFloats(&w, rec.target_logits);
      w.PutI64(rec.logit_tasks);
      WriteCompactFloats(&w, rec.feature);
      w.PutF32(rec.confidence);
    }
    sections.push_back({kMemory, w.TakeBytes()});
  }

  {
    ByteWriter w;
    trainer.ExportExtraState(&w);
    sections.push_back({kExtra, w.TakeBytes()});
  }

  return EncodeSections(sections);
}

}  // namespace

Result<CheckpointInfo> SaveTrainer(const std::string& dir,
                                   const baselines::TrainerBase& trainer,
                                   int64_t next_task,
                                   const SaveOptions& options) {
  CDCL_RETURN_NOT_OK(EnsureDir(dir));
  std::vector<uint64_t> generations;
  CDCL_RETURN_NOT_OK(ListGenerations(dir, &generations));
  const uint64_t generation = generations.empty() ? 1 : generations.back() + 1;

  const std::string name = GenerationFileName(generation);
  CDCL_RETURN_NOT_OK(
      CommitFile(dir, name, EncodeTrainer(trainer, next_task), "data"));
  // Only once the data file is durable does the manifest start naming it;
  // a crash between the two leaves the old manifest pointing at the old
  // (still valid) generation.
  CDCL_RETURN_NOT_OK(WriteManifest(dir, generation));

  if (options.retain > 0) {
    generations.push_back(generation);
    const size_t keep = static_cast<size_t>(options.retain);
    if (generations.size() > keep) {
      for (size_t i = 0; i + keep < generations.size(); ++i) {
        const Status st = RemoveGeneration(dir, generations[i]);
        if (!st.ok()) {
          CDCL_LOG(Warning) << "checkpoint retention: " << st.ToString();
        }
      }
    }
  }

  CheckpointInfo info;
  info.generation = generation;
  info.next_task = next_task;
  info.path = dir + "/" + name;
  return info;
}

Status VerifyCheckpoint(const std::vector<uint8_t>& bytes) {
  ParsedCheckpoint parsed;
  return ParseCheckpoint(bytes, &parsed);
}

Result<CheckpointInfo> RestoreTrainer(const std::string& dir,
                                      baselines::TrainerBase* trainer) {
  // Candidate order: manifest generation first (the fast path), then every
  // on-disk generation newest-to-oldest. A torn manifest or a corrupt
  // generation just moves us down the list.
  std::vector<uint64_t> candidates;
  const Result<uint64_t> manifest = ReadManifest(dir);
  if (manifest.ok()) {
    candidates.push_back(*manifest);
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    CDCL_LOG(Warning) << "checkpoint manifest unreadable ("
                      << manifest.status().ToString()
                      << "); falling back to directory scan";
  }
  std::vector<uint64_t> all;
  CDCL_RETURN_NOT_OK(ListGenerations(dir, &all));
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (candidates.empty() || candidates[0] != *it) candidates.push_back(*it);
  }
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint generations in " + dir);
  }

  for (uint64_t generation : candidates) {
    const std::string path = dir + "/" + GenerationFileName(generation);
    std::vector<uint8_t> bytes;
    Status st = ReadFileBytes(path, &bytes);
    ParsedCheckpoint parsed;
    if (st.ok()) st = ParseCheckpoint(bytes, &parsed);
    if (!st.ok()) {
      CDCL_LOG(Warning) << "checkpoint generation " << generation
                        << " rejected (" << st.ToString()
                        << "); trying previous";
      continue;
    }
    CDCL_RETURN_NOT_OK(ApplyCheckpoint(parsed, trainer));
    CheckpointInfo info;
    info.generation = generation;
    info.next_task = parsed.next_task;
    info.path = path;
    CDCL_LOG(Info) << "restored checkpoint generation " << generation
                   << " (resuming at task " << info.next_task << ")";
    return info;
  }
  return Status::IoError("all checkpoint generations in " + dir +
                         " are corrupt or unreadable");
}

}  // namespace ckpt
}  // namespace cdcl
