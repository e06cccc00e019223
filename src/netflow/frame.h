// The one binary envelope of the framed on-disk formats:
//
//   header := magic u32 | version u16                (little-endian)
//   body   := payload-size varint | payload | crc32  (CRC-32 of the payload)
//
// A DMCK monitor checkpoint (detect/stream.cpp) and a DMSV supervisor book
// (serve/supervisor.cpp) are one header and one body. A .dmnf trace
// (trace_io.h) is one header, a u32 sampling denominator, and blocks that
// each put a record-count varint before a body. This module owns the CRC,
// the little-endian helpers, both halves of the envelope, and FrameError,
// the typed error every reader of those formats throws.
//
// DMSG segments (segment_store.h) share only the header check: their fixed
// 56-byte header carries the body geometry, because the body is mmap'd and
// read in place as aligned arrays. The DMMF manifest is text with a CRC
// line, and the event stream is bare varints; neither is framed here.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace dm::netflow {

/// Damage found while reading a frame. A FormatError, so existing catch
/// sites keep working, but its kind() tells "not this format" from "a
/// version this build cannot read" from "damaged" — what a supervisor needs
/// when choosing which generation to fall back to.
class FrameError : public FormatError {
 public:
  enum class Kind {
    kTruncated,         ///< input ended inside the frame
    kBadMagic,          ///< not this format
    kBadVersion,        ///< this format, in a version this build does not read
    kOversized,         ///< a size, count or varint beyond the format's bounds
    kCrcMismatch,       ///< payload bytes fail the frame CRC
    kMalformedPayload,  ///< the frame is intact but its content does not decode
    kTrailingBytes,     ///< the content decoded with bytes left over
  };

  FrameError(Kind kind, const std::string& what)
      : FormatError(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Short name of a kind for messages: "truncated frame", "bad magic", ...
[[nodiscard]] const char* describe(FrameError::Kind kind) noexcept;

/// CRC-32 (IEEE 802.3 polynomial) over a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Little-endian load of an unsigned integer at `p`, on any host byte order.
/// One unaligned load on little-endian hosts (the CRC inner loop leans on
/// it), byte assembly elsewhere.
template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

/// Little-endian store of an unsigned integer at `p`.
template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// magic u32 + version u16.
inline constexpr std::size_t kFrameHeaderBytes = 6;
/// The CRC-32 that closes a body.
inline constexpr std::size_t kFrameCrcBytes = 4;

/// Default cap on a body's payload. A damaged size varint must fail the
/// size check, not become a multi-gigabyte allocation before the CRC gets
/// a chance to reject the frame; 1 GiB is orders of magnitude above any
/// checkpoint or book.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Inclusive payload-size bounds. Readers apply them to the size varint
/// before they allocate or read a single payload byte.
struct SizeBounds {
  std::uint64_t min = 0;
  std::uint64_t max = kMaxFramePayload;
};

/// Appends the header.
void put_frame_header(std::vector<std::uint8_t>& out, std::uint32_t magic,
                      std::uint16_t version);

/// Checks the header at the front of `bytes`: why it fails (kTruncated,
/// kBadMagic or kBadVersion), or nothing when it matches.
[[nodiscard]] std::optional<FrameError::Kind> check_frame_header(
    std::span<const std::uint8_t> bytes, std::uint32_t magic,
    std::uint16_t version) noexcept;

/// Reads and checks the header from `in`. Throws FrameError, its message
/// prefixed with `context` ("trace", "checkpoint", ...).
void read_frame_header(std::istream& in, std::uint32_t magic,
                       std::uint16_t version, const char* context);

/// Appends a body: the payload's size varint, the payload, its CRC.
void put_frame_body(std::vector<std::uint8_t>& out,
                    std::span<const std::uint8_t> payload);

/// Reads one body from `in` into `payload` (resized to fit; its capacity is
/// reused across calls) and verifies its CRC. Returns the bytes consumed.
/// Throws FrameError: kTruncated, kOversized (outside `bounds`, or a size
/// varint past ten bytes) or kCrcMismatch, with the expected and actual CRC
/// in the message.
std::uint64_t read_frame_body(std::istream& in,
                              std::vector<std::uint8_t>& payload,
                              SizeBounds bounds, const char* context);

/// One body read from a byte span.
struct SpanBody {
  std::optional<FrameError::Kind> error;  ///< empty when the body read cleanly
  /// True once the size varint decoded. A failure with this false lies in
  /// the size varint itself, not in a cut-off payload.
  bool size_read = false;
  std::span<const std::uint8_t> payload;  ///< the CRC-verified payload
  std::size_t end = 0;                    ///< offset of the first byte after the CRC
};

/// Reads the body at `bytes[pos]` and verifies its CRC. Never throws, and
/// reports failure by value: the trace salvage scanner probes byte by byte
/// over damage, where nearly every probe fails.
[[nodiscard]] SpanBody read_frame_body(std::span<const std::uint8_t> bytes,
                                       std::size_t pos,
                                       SizeBounds bounds) noexcept;

/// Reads one varint from `in`. Returns the bytes consumed, or 0 when the
/// stream ends before its first byte. Throws FrameError kTruncated when it
/// ends inside the varint and kOversized when the varint runs past ten bytes.
[[nodiscard]] std::size_t read_varint(std::istream& in, std::uint64_t& value,
                                      const char* context);

}  // namespace dm::netflow
