#ifndef CDCL_UTIL_SERIALIZE_H_
#define CDCL_UTIL_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace cdcl {

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over `n` bytes.
/// `seed` chains incremental computations: Crc32(b, nb, Crc32(a, na)) equals
/// the CRC of a||b. Checkpoint sections carry this so a torn or bit-flipped
/// write is *detected* at load time instead of deserialized into garbage.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Append-only little-endian byte packer used by the checkpoint format (and
/// any trainer-specific extra state). All integers are fixed-width LE and
/// floats are raw IEEE-754 bits, so encoded state round-trips bitwise.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  /// u64 length prefix + raw bytes.
  void PutString(const std::string& s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }
  /// u64 element count + raw IEEE bits (bitwise round-trip, NaNs included).
  void PutFloats(const float* data, size_t n) {
    PutU64(n);
    for (size_t i = 0; i < n; ++i) PutF32(data[i]);
  }
  void PutFloats(const std::vector<float>& v) { PutFloats(v.data(), v.size()); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over an encoded byte range. Every getter returns
/// false once the range is exhausted or a length prefix overruns it; callers
/// translate that into a structural-corruption Status — a checkpoint loader
/// must never read past its section, whatever bytes an attacker or a torn
/// write put there.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : p_(data), end_(data + n) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool exhausted() const { return p_ == end_; }

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool GetF32(float* v) {
    uint32_t bits;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetBytes(void* out, size_t n) {
    if (remaining() < n) return false;
    if (n == 0) return true;  // `out` may be an empty vector's null data()
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  bool GetString(std::string* s) {
    uint64_t n;
    if (!GetU64(&n) || remaining() < n) return false;
    s->assign(reinterpret_cast<const char*>(p_), static_cast<size_t>(n));
    p_ += n;
    return true;
  }
  bool GetFloats(std::vector<float>* v) {
    uint64_t n;
    if (!GetU64(&n) || n > remaining() / sizeof(float)) return false;
    v->resize(static_cast<size_t>(n));
    for (size_t i = 0; i < n; ++i) {
      if (!GetF32(&(*v)[i])) return false;
    }
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace cdcl

#endif  // CDCL_UTIL_SERIALIZE_H_
