#include "netflow/frame.h"

#include <array>
#include <cstdio>
#include <istream>

#include "netflow/varint.h"

namespace dm::netflow {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is the
/// classic bytewise table, and tables[k][b] advances tables[k - 1][b] by
/// one more zero byte, so eight table lookups fold in eight input bytes.
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

/// Reads exactly `n` bytes; false when the stream ends first.
bool read_exact(std::istream& in, std::uint8_t* dst, std::size_t n) {
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

}  // namespace

const char* describe(FrameError::Kind kind) noexcept {
  switch (kind) {
    case FrameError::Kind::kTruncated: return "truncated frame";
    case FrameError::Kind::kBadMagic: return "bad magic";
    case FrameError::Kind::kBadVersion: return "unsupported version";
    case FrameError::Kind::kOversized: return "implausible size";
    case FrameError::Kind::kCrcMismatch: return "CRC mismatch";
    case FrameError::Kind::kMalformedPayload: return "malformed payload";
    case FrameError::Kind::kTrailingBytes: return "trailing bytes";
  }
  return "frame error";
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = crc_tables();
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le<std::uint32_t>(p);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

void put_frame_header(std::vector<std::uint8_t>& out, std::uint32_t magic,
                      std::uint16_t version) {
  std::uint8_t head[kFrameHeaderBytes];
  store_le(head, magic);
  store_le(head + 4, version);
  out.insert(out.end(), head, head + kFrameHeaderBytes);
}

std::optional<FrameError::Kind> check_frame_header(
    std::span<const std::uint8_t> bytes, std::uint32_t magic,
    std::uint16_t version) noexcept {
  if (bytes.size() < kFrameHeaderBytes) return FrameError::Kind::kTruncated;
  if (load_le<std::uint32_t>(bytes.data()) != magic) {
    return FrameError::Kind::kBadMagic;
  }
  if (load_le<std::uint16_t>(bytes.data() + 4) != version) {
    return FrameError::Kind::kBadVersion;
  }
  return std::nullopt;
}

void read_frame_header(std::istream& in, std::uint32_t magic,
                       std::uint16_t version, const char* context) {
  std::uint8_t head[kFrameHeaderBytes];
  in.read(reinterpret_cast<char*>(head), kFrameHeaderBytes);
  const auto got = static_cast<std::size_t>(in.gcount());
  const auto bad = check_frame_header({head, got}, magic, version);
  if (!bad) return;
  std::string what = std::string(context) + ": " + describe(*bad);
  if (*bad == FrameError::Kind::kBadVersion) {
    what += " " + std::to_string(load_le<std::uint16_t>(head + 4));
  }
  throw FrameError(*bad, what);
}

void put_frame_body(std::vector<std::uint8_t>& out,
                    std::span<const std::uint8_t> payload) {
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  std::uint8_t crc[kFrameCrcBytes];
  store_le(crc, crc32(payload));
  out.insert(out.end(), crc, crc + kFrameCrcBytes);
}

std::uint64_t read_frame_body(std::istream& in,
                              std::vector<std::uint8_t>& payload,
                              SizeBounds bounds, const char* context) {
  const auto fail = [context](FrameError::Kind kind, const std::string& what) {
    return FrameError(kind, std::string(context) + ": " + what);
  };
  std::uint64_t size = 0;
  const std::size_t size_bytes = read_varint(in, size, context);
  if (size_bytes == 0) {
    throw fail(FrameError::Kind::kTruncated, "truncated payload size");
  }
  if (size < bounds.min || size > bounds.max) {
    throw fail(FrameError::Kind::kOversized,
               "implausible payload size " + std::to_string(size));
  }
  payload.resize(size);
  if (size > 0 && !read_exact(in, payload.data(), payload.size())) {
    throw fail(FrameError::Kind::kTruncated,
               "truncated payload (wanted " + std::to_string(size) + " bytes)");
  }
  std::uint8_t crc[kFrameCrcBytes];
  if (!read_exact(in, crc, kFrameCrcBytes)) {
    throw fail(FrameError::Kind::kTruncated, "truncated CRC");
  }
  const std::uint32_t expected = load_le<std::uint32_t>(crc);
  const std::uint32_t actual = crc32(payload);
  if (actual != expected) {
    throw fail(FrameError::Kind::kCrcMismatch, "CRC mismatch: expected " +
                                                   hex32(expected) +
                                                   ", actual " + hex32(actual));
  }
  return size_bytes + size + kFrameCrcBytes;
}

SpanBody read_frame_body(std::span<const std::uint8_t> bytes, std::size_t pos,
                         SizeBounds bounds) noexcept {
  SpanBody body;
  const std::size_t start = pos;
  std::uint64_t size = 0;
  if (!try_get_varint(bytes, pos, size)) {
    // Fewer than ten bytes read means the varint ran off the span.
    body.error = pos - start < kMaxVarintBytes ? FrameError::Kind::kTruncated
                                               : FrameError::Kind::kOversized;
    return body;
  }
  body.size_read = true;
  if (size < bounds.min || size > bounds.max) {
    body.error = FrameError::Kind::kOversized;
    return body;
  }
  const std::size_t left = bytes.size() - pos;
  if (size > left || left - size < kFrameCrcBytes) {
    body.error = FrameError::Kind::kTruncated;
    return body;
  }
  const auto payload = bytes.subspan(pos, static_cast<std::size_t>(size));
  if (crc32(payload) != load_le<std::uint32_t>(payload.data() + payload.size())) {
    body.error = FrameError::Kind::kCrcMismatch;
    return body;
  }
  body.payload = payload;
  body.end = pos + payload.size() + kFrameCrcBytes;
  return body;
}

std::size_t read_varint(std::istream& in, std::uint64_t& value,
                        const char* context) {
  std::uint64_t v = 0;
  for (std::size_t n = 0; n < kMaxVarintBytes; ++n) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      if (n == 0) return 0;
      throw FrameError(FrameError::Kind::kTruncated,
                       std::string(context) + ": truncated varint");
    }
    v |= static_cast<std::uint64_t>(c & 0x7f) << (7 * n);
    if ((c & 0x80) == 0) {
      value = v;
      return n + 1;
    }
  }
  throw FrameError(FrameError::Kind::kOversized,
                   std::string(context) + ": varint runs past ten bytes");
}

}  // namespace dm::netflow
