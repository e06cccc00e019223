// LEB128 varints and zigzag mappings shared by the framed on-disk formats
// (netflow/frame.h) and the in-memory columnar record store
// (columnar_records).
//
// Encoding is append-only into a byte vector. Two decoders exist by design:
// the unchecked pointer-advancing get_varint below for self-produced,
// trusted buffers (the columnar store decodes only bytes it encoded), and
// the bounds-checked try_get_varint for untrusted bytes (trace blocks,
// checkpoints, books), which CheckedCursor wraps.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.h"

namespace dm::netflow {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Encodes v at `p` with no capacity checks and returns the advanced
/// pointer. Callers stage a bounded group of varints in a stack buffer
/// (kMaxVarintBytes of headroom each) and splice the result into the byte
/// vector in one append — identical bytes to repeated put_varint calls.
[[nodiscard]] inline std::uint8_t* put_varint_raw(std::uint8_t* p,
                                                  std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Decodes one varint from a trusted buffer, advancing `p`. No bounds
/// checking: callers guarantee `p` points at a well-formed varint (the
/// columnar store only decodes buffers it produced; the ASan/UBSan CI gate
/// covers the invariant).
[[nodiscard]] inline std::uint64_t get_varint(const std::uint8_t*& p) noexcept {
  std::uint64_t v = 0;
  int shift = 0;
  std::uint8_t b;
  do {
    b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    shift += 7;
  } while ((b & 0x80) != 0);
  return v;
}

/// Longest LEB128 encoding of a u64: ten 7-bit groups.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Bounds-checked decode of the varint at `bytes[pos]`, advancing `pos`.
/// Returns false when the varint runs off the span or past ten bytes; `pos`
/// then stops at the span's end or after the tenth byte.
[[nodiscard]] inline bool try_get_varint(std::span<const std::uint8_t> bytes,
                                         std::size_t& pos,
                                         std::uint64_t& value) noexcept {
  std::uint64_t v = 0;
  for (std::size_t shift = 0; shift < 7 * kMaxVarintBytes; shift += 7) {
    if (pos >= bytes.size()) return false;
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      value = v;
      return true;
    }
  }
  return false;
}

/// Bounds-checked decoder over the payload of a verified frame. Every
/// primitive throws dm::FormatError (prefixed with `context`) instead of
/// reading past the span.
class CheckedCursor {
 public:
  explicit CheckedCursor(std::span<const std::uint8_t> bytes,
                         const char* context = "varint") noexcept
      : bytes_(bytes), context_(context) {}

  std::uint64_t varint() {
    std::uint64_t v = 0;
    if (!try_get_varint(bytes_, pos_, v)) {
      throw FormatError(std::string(context_) + ": truncated varint");
    }
    return v;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= bytes_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* context_;
  std::size_t pos_ = 0;
};

/// Slack a SWAR record decode needs past its start byte: seven fields at
/// worst-case width plus the 8-byte word read of the last field. Callers
/// switch to the scalar decoder for the final bytes of a buffer.
inline constexpr std::size_t kSwarRecordSlack = 7 * kMaxVarintBytes + 8;

/// Unaligned little-endian 64-bit load. The byte-assembly form is
/// endian-independent and folds to a single load on little-endian targets.
[[nodiscard]] inline std::uint64_t load_u64le(const std::uint8_t* p) noexcept {
  std::uint64_t w;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof w);
  } else {
    w = std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
        std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
        std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
        std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
  }
  return w;
}

/// SWAR decode of one varint from a trusted buffer, advancing `p`. Loads an
/// 8-byte word, finds the terminator byte via the continuation-bit mask, and
/// compacts the 7-bit groups with three shift-merge steps — no per-byte
/// loop for the common 1..8-byte encodings. Encodings of 9 or 10 bytes
/// (> 56 significant bits) fall back to the scalar get_varint, which is also
/// this kernel's differential oracle in the tests.
///
/// Contract: at least 8 bytes past `p` are readable (callers budget
/// kSwarRecordSlack per record and take the scalar path near buffer ends),
/// and `p` points at a well-formed varint, same as get_varint.
[[nodiscard]] inline std::uint64_t get_varint_swar(
    const std::uint8_t*& p) noexcept {
  std::uint64_t w = load_u64le(p);
  if ((w & 0x80) == 0) {  // 1-byte fast path: ports, protocol, flags, counts
    ++p;
    return w & 0x7f;
  }
  const std::uint64_t stops = ~w & 0x8080808080808080ULL;
  if (stops == 0) return get_varint(p);  // 9- or 10-byte encoding
  const unsigned len =
      (static_cast<unsigned>(std::countr_zero(stops)) >> 3) + 1;
  w &= ~std::uint64_t{0} >> (64 - 8 * len);  // len <= 8, shift is in range
  w &= 0x7f7f7f7f7f7f7f7fULL;
  // Pairwise 7-bit group compaction: 8x7 -> 4x14 -> 2x28 -> 1x56 bits.
  w = (w & 0x00ff00ff00ff00ffULL) | ((w & 0xff00ff00ff00ff00ULL) >> 1);
  w = (w & 0x0000ffff0000ffffULL) | ((w & 0xffff0000ffff0000ULL) >> 2);
  w = (w & 0x00000000ffffffffULL) | ((w & 0xffffffff00000000ULL) >> 4);
  p += len;
  return w;
}

/// ZigZag: maps small signed deltas to small unsigned varints.
[[nodiscard]] inline std::uint64_t zigzag64(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t unzigzag64(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

[[nodiscard]] inline std::uint32_t zigzag32(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

[[nodiscard]] inline std::int32_t unzigzag32(std::uint32_t v) noexcept {
  return static_cast<std::int32_t>(v >> 1) ^ -static_cast<std::int32_t>(v & 1);
}

/// Wraparound delta helpers: `a - b` in modular arithmetic zigzagged so
/// both tiny forward and tiny backward steps encode in one or two bytes,
/// while any (a, b) pair — including INT64_MIN/INT64_MAX minutes fed in by
/// ingestion — round-trips exactly (decode adds the delta back mod 2^64).
[[nodiscard]] inline std::uint64_t delta64(std::uint64_t a, std::uint64_t b) noexcept {
  return zigzag64(static_cast<std::int64_t>(a - b));
}

[[nodiscard]] inline std::uint64_t undelta64(std::uint64_t base, std::uint64_t zz) noexcept {
  return base + static_cast<std::uint64_t>(unzigzag64(zz));
}

[[nodiscard]] inline std::uint32_t delta32(std::uint32_t a, std::uint32_t b) noexcept {
  return zigzag32(static_cast<std::int32_t>(a - b));
}

[[nodiscard]] inline std::uint32_t undelta32(std::uint32_t base, std::uint32_t zz) noexcept {
  return base + static_cast<std::uint32_t>(unzigzag32(zz));
}

}  // namespace dm::netflow
