#include "ckpt/io.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <algorithm>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "util/fault.h"
#include "util/serialize.h"

namespace cdcl {
namespace ckpt {
namespace {

constexpr char kMagic[8] = {'C', 'D', 'C', 'L', 'C', 'K', 'P', '1'};
constexpr char kManifestName[] = "MANIFEST";
constexpr uint32_t kManifestTag = 0x4D414E49u;  // "MANI"
constexpr char kInjectedCrashPrefix[] = "injected crash at ";

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status InjectedCrash(const std::string& point) {
  return Status::IoError(kInjectedCrashPrefix + point);
}

/// Closes fd ignoring errors (error paths only; the success path checks).
void CloseQuietly(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Section CRC covers the header (tag, len — little-endian, exactly as
/// framed) chained into the payload, so a bit flip in the header is detected
/// just like one in the data.
uint32_t SectionCrc(uint32_t tag, const std::vector<uint8_t>& payload) {
  uint8_t header[12];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(tag >> (8 * i));
  }
  const uint64_t len = payload.size();
  for (int i = 0; i < 8; ++i) {
    header[4 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return Crc32(payload.data(), payload.size(), Crc32(header, sizeof(header)));
}

}  // namespace

bool IsInjectedCrash(const Status& status) {
  return status.code() == StatusCode::kIoError &&
         status.message().rfind(kInjectedCrashPrefix, 0) == 0;
}

std::vector<uint8_t> EncodeSections(const std::vector<Section>& sections) {
  ByteWriter w;
  w.PutBytes(kMagic, sizeof(kMagic));
  w.PutU32(static_cast<uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.PutU32(s.tag);
    w.PutU64(s.payload.size());
    w.PutBytes(s.payload.data(), s.payload.size());
    w.PutU32(SectionCrc(s.tag, s.payload));
  }
  return w.TakeBytes();
}

Status DecodeSections(const std::vector<uint8_t>& bytes,
                      std::vector<Section>* out) {
  ByteReader r(bytes);
  char magic[sizeof(kMagic)];
  if (!r.GetBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("checkpoint: bad magic (torn or foreign file)");
  }
  uint32_t count = 0;
  if (!r.GetU32(&count)) {
    return Status::IoError("checkpoint: truncated section count");
  }
  // Every section frames at least tag(4) + len(8) + crc(4) bytes. The list
  // grows per decoded section, so a forged count sizes nothing.
  if (count > r.remaining() / 16) {
    return Status::IoError("checkpoint: section count exceeds file size");
  }
  std::vector<Section> sections;
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    uint64_t len = 0;
    if (!r.GetU32(&s.tag) || !r.GetU64(&len) || r.remaining() < len) {
      return Status::IoError("checkpoint: truncated section " +
                             std::to_string(i));
    }
    s.payload.resize(static_cast<size_t>(len));
    if (!r.GetBytes(s.payload.data(), s.payload.size())) {
      return Status::IoError("checkpoint: truncated section payload " +
                             std::to_string(i));
    }
    uint32_t crc = 0;
    if (!r.GetU32(&crc)) {
      return Status::IoError("checkpoint: missing section crc " +
                             std::to_string(i));
    }
    if (crc != SectionCrc(s.tag, s.payload)) {
      return Status::IoError("checkpoint: crc mismatch in section tag " +
                             std::to_string(s.tag));
    }
    sections.push_back(std::move(s));
  }
  if (!r.exhausted()) {
    return Status::IoError("checkpoint: trailing bytes after last section");
  }
  *out = std::move(sections);
  return Status::Ok();
}

Status CommitFile(const std::string& dir, const std::string& name,
                  const std::vector<uint8_t>& bytes,
                  const std::string& fault_tag) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const std::string write_pt = "ckpt.write." + fault_tag;
  const std::string fsync_pt = "ckpt.fsync." + fault_tag;
  const std::string rename_pt = "ckpt.rename." + fault_tag;
  const std::string dirsync_pt = "ckpt.fsync.dir." + fault_tag;

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("open " + tmp_path));

  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        fault::Write(write_pt.c_str(), fd, bytes.data() + off, bytes.size() - off);
    if (w == fault::kCrashSentinel) {
      // Simulated death mid-write: leave the torn tmp file exactly as-is.
      CloseQuietly(fd);
      return InjectedCrash(write_pt);
    }
    if (w < 0) {
      CloseQuietly(fd);
      ::unlink(tmp_path.c_str());
      return Status::IoError(ErrnoMessage("write " + tmp_path));
    }
    off += static_cast<size_t>(w);
  }

  const int fs = fault::Fsync(fsync_pt.c_str(), fd);
  if (fs == static_cast<int>(fault::kCrashSentinel)) {
    CloseQuietly(fd);
    return InjectedCrash(fsync_pt);
  }
  if (fs < 0) {
    CloseQuietly(fd);
    ::unlink(tmp_path.c_str());
    return Status::IoError(ErrnoMessage("fsync " + tmp_path));
  }
  if (::close(fd) < 0) {
    ::unlink(tmp_path.c_str());
    return Status::IoError(ErrnoMessage("close " + tmp_path));
  }

  const int rn = fault::Rename(rename_pt.c_str(), tmp_path.c_str(),
                               final_path.c_str());
  if (rn == static_cast<int>(fault::kCrashSentinel)) {
    return InjectedCrash(rename_pt);
  }
  if (rn < 0) {
    ::unlink(tmp_path.c_str());
    return Status::IoError(ErrnoMessage("rename " + tmp_path));
  }

  // Make the rename itself durable: fsync the containing directory.
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Status::IoError(ErrnoMessage("open dir " + dir));
  const int ds = fault::Fsync(dirsync_pt.c_str(), dfd);
  if (ds == static_cast<int>(fault::kCrashSentinel)) {
    CloseQuietly(dfd);
    return InjectedCrash(dirsync_pt);
  }
  if (ds < 0) {
    CloseQuietly(dfd);
    return Status::IoError(ErrnoMessage("fsync dir " + dir));
  }
  if (::close(dfd) < 0) return Status::IoError(ErrnoMessage("close dir " + dir));
  return Status::Ok();
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError(ErrnoMessage("open " + path));
  }
  std::vector<uint8_t> bytes;
  // Size the buffer once from the file length: growing it chunk by chunk
  // would allocate up to twice the file.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      CloseQuietly(fd);
      return Status::IoError(ErrnoMessage("read " + path));
    }
    bytes.insert(bytes.end(), buf, buf + r);
  }
  CloseQuietly(fd);
  *out = std::move(bytes);
  return Status::Ok();
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::IoError(ErrnoMessage("mkdir " + dir));
}

std::string GenerationFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08" PRIu64 ".bin", generation);
  return buf;
}

Status WriteManifest(const std::string& dir, uint64_t generation) {
  ByteWriter w;
  w.PutU64(generation);
  Section s;
  s.tag = kManifestTag;
  s.payload = w.TakeBytes();
  return CommitFile(dir, kManifestName, EncodeSections({std::move(s)}),
                    "manifest");
}

Result<uint64_t> ReadManifest(const std::string& dir) {
  std::vector<uint8_t> bytes;
  CDCL_RETURN_NOT_OK(ReadFileBytes(dir + "/" + kManifestName, &bytes));
  std::vector<Section> sections;
  CDCL_RETURN_NOT_OK(DecodeSections(bytes, &sections));
  if (sections.size() != 1 || sections[0].tag != kManifestTag) {
    return Status::IoError("manifest: unexpected layout");
  }
  ByteReader r(sections[0].payload);
  uint64_t generation = 0;
  if (!r.GetU64(&generation) || !r.exhausted()) {
    return Status::IoError("manifest: bad payload");
  }
  return generation;
}

Status ListGenerations(const std::string& dir, std::vector<uint64_t>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::Ok();
    return Status::IoError(ErrnoMessage("opendir " + dir));
  }
  while (struct dirent* e = ::readdir(d)) {
    uint64_t gen = 0;
    int consumed = 0;
    if (std::sscanf(e->d_name, "ckpt-%" SCNu64 ".bin%n", &gen, &consumed) == 1 &&
        consumed == static_cast<int>(std::strlen(e->d_name))) {
      out->push_back(gen);
    }
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return Status::Ok();
}

Status RemoveGeneration(const std::string& dir, uint64_t generation) {
  const std::string path = dir + "/" + GenerationFileName(generation);
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::Ok();
  return Status::IoError(ErrnoMessage("unlink " + path));
}

}  // namespace ckpt
}  // namespace cdcl
