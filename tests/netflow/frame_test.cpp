// The frame codec (netflow/frame.h): golden bytes pin every framed format
// (.dmnf, DMCK, DMSV) across commits, and every FrameError kind must come
// out of both the istream reader and the span reader, and out of the
// strict .dmnf reader and trace_layout that sit on them.
#include "netflow/frame.h"

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "detect/stream.h"
#include "netflow/trace_io.h"
#include "netflow/varint.h"
#include "serve/supervisor.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Kind = FrameError::Kind;

constexpr std::uint32_t kMagic = 0x54534554;  // "TEST"
constexpr std::uint16_t kVersion = 3;

// ---- CRC-32 ---------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

/// The bytewise table-driven CRC-32 (reflected IEEE polynomial): the
/// reference crc32's slicing must reproduce.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t b : bytes) crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  util::Rng rng(31);
  std::vector<std::uint8_t> buffer(300 + 8);
  for (std::size_t length = 0; length <= 300; ++length) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.below(256));
      const std::span<const std::uint8_t> bytes(buffer.data() + offset, length);
      ASSERT_EQ(crc32(bytes), bytewise_crc32(bytes))
          << "length " << length << ", offset " << offset;
    }
  }
}

// ---- Golden bytes -----------------------------------------------------------
// Captured from the build before the frame codec existed. A change here is a
// format change: bump the format's version instead of editing the bytes.

FlowRecord golden_record() {
  FlowRecord r;
  r.minute = 1234;
  r.src_ip = IPv4::from_octets(8, 8, 4, 4);
  r.dst_ip = IPv4::from_octets(100, 64, 1, 2);
  r.src_port = 53;
  r.dst_port = 40000;
  r.protocol = Protocol::kUdp;
  r.tcp_flags = static_cast<TcpFlags>(0);
  r.packets = 3;
  r.bytes = 1500;
  return r;
}

PrefixSet cloud_space() {
  PrefixSet set;
  set.add(Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

Bytes checkpoint_of(const detect::StreamMonitor& monitor) {
  std::ostringstream out(std::ios::binary);
  monitor.checkpoint(out);
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

detect::StreamMonitor fresh_monitor() {
  return detect::StreamMonitor(cloud_space(), nullptr,
                               detect::DetectionConfig{},
                               detect::TimeoutTable::paper(), nullptr, nullptr,
                               detect::StreamConfig{});
}

TEST(FrameGolden, OneRecordTrace) {
  const Bytes golden = {
      0x44, 0x4d, 0x4e, 0x46, 0x01, 0x00, 0x00, 0x10, 0x00, 0x00, 0x01, 0x15,
      0xa4, 0x13, 0x00, 0x84, 0x88, 0xa0, 0x40, 0x82, 0x82, 0x80, 0xa2, 0x06,
      0x35, 0xc0, 0xb8, 0x02, 0x11, 0x00, 0x03, 0xdc, 0x0b, 0x0a, 0x51, 0xa7,
      0x02, 0x00};
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write(golden_record());
    writer.finish();
  }
  const std::string s = buffer.str();
  EXPECT_EQ(Bytes(s.begin(), s.end()), golden);

  std::stringstream in(std::string(golden.begin(), golden.end()));
  TraceReader reader(in);
  EXPECT_EQ(reader.sampling_denominator(), 4096u);
  EXPECT_EQ(reader.read_all(), std::vector<FlowRecord>{golden_record()});
}

TEST(FrameGolden, FreshMonitorCheckpoint) {
  const Bytes golden = {
      0x44, 0x4d, 0x43, 0x4b, 0x02, 0x00, 0x0f, 0x01, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x79, 0x39,
      0x27, 0xf3};
  EXPECT_EQ(checkpoint_of(fresh_monitor()), golden);
}

TEST(FrameGolden, OneRecordMonitorCheckpoint) {
  const Bytes golden = {
      0x44, 0x4d, 0x43, 0x4b, 0x02, 0x00, 0x43, 0xa2, 0x13, 0xa4, 0x13, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xa4, 0x13, 0x01,
      0x82, 0x82, 0x80, 0xa2, 0x06, 0x00, 0x82, 0x82, 0x80, 0xa2, 0x06, 0xa4,
      0x13, 0x00, 0x03, 0xdc, 0x0b, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x84, 0x88, 0xa0, 0x40, 0x01, 0x00,
      0x00, 0x00, 0xba, 0x5e, 0x6b, 0xfd};
  detect::StreamMonitor monitor = fresh_monitor();
  monitor.ingest(golden_record());
  EXPECT_EQ(checkpoint_of(monitor), golden);

  detect::StreamMonitor restored = fresh_monitor();
  std::istringstream in(std::string(golden.begin(), golden.end()),
                        std::ios::binary);
  restored.restore(in);
  EXPECT_EQ(checkpoint_of(restored), golden);
}

TEST(FrameGolden, FreshSupervisorBook) {
  const Bytes golden = {
      0x44, 0x4d, 0x53, 0x56, 0x01, 0x00, 0x24, 0x00, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x1c, 0x7b, 0x90, 0xf8};
  std::vector<serve::TenantSpec> tenants;
  tenants.push_back({"solo", 1, 0, 0, 8});
  serve::Supervisor sup(cloud_space(), nullptr, std::move(tenants),
                        serve::ServeConfig{});
  const std::vector<serve::ShardFile> files = sup.snapshot_files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].name, "supervisor.dmsv");
  EXPECT_EQ(files[0].bytes, golden);
  EXPECT_EQ(files[1].bytes, checkpoint_of(fresh_monitor()));
}

// ---- The envelope readers -----------------------------------------------------

Bytes frame_of(const Bytes& payload) {
  Bytes frame;
  put_frame_header(frame, kMagic, kVersion);
  put_frame_body(frame, payload);
  return frame;
}

/// What the istream reader makes of `bytes` under `bounds`: the kind it
/// throws, or nothing when the frame reads cleanly.
std::optional<Kind> istream_verdict(const Bytes& bytes, SizeBounds bounds) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()),
                        std::ios::binary);
  Bytes payload;
  try {
    read_frame_header(in, kMagic, kVersion, "test");
    (void)read_frame_body(in, payload, bounds, "test");
  } catch (const FrameError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("test: ", 0), 0u) << e.what();
    return e.kind();
  }
  return std::nullopt;
}

/// The same verdict from the span reader.
std::optional<Kind> span_verdict(const Bytes& bytes, SizeBounds bounds) {
  if (const auto bad = check_frame_header(bytes, kMagic, kVersion)) return bad;
  return read_frame_body(bytes, kFrameHeaderBytes, bounds).error;
}

struct Damage {
  const char* label;
  std::function<void(Bytes&)> apply;
  SizeBounds bounds;
  std::optional<Kind> expected;
};

TEST(FrameCodec, BothReadersClassifyEveryEnvelopeDamageAlike) {
  const Bytes payload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Bytes valid = frame_of(payload);
  ASSERT_EQ(valid.size(), kFrameHeaderBytes + 1 + payload.size() + 4);
  const std::size_t body = kFrameHeaderBytes;

  const std::vector<Damage> cases = {
      {"intact", [](Bytes&) {}, {}, std::nullopt},
      {"empty", [](Bytes& b) { b.clear(); }, {}, Kind::kTruncated},
      {"cut in header", [](Bytes& b) { b.resize(3); }, {}, Kind::kTruncated},
      {"cut before size", [&](Bytes& b) { b.resize(body); }, {},
       Kind::kTruncated},
      {"cut in size varint",
       [&](Bytes& b) {
         b.resize(body);
         b.push_back(0x80);
       },
       {}, Kind::kTruncated},
      {"cut in payload", [&](Bytes& b) { b.resize(body + 5); }, {},
       Kind::kTruncated},
      {"cut in CRC", [](Bytes& b) { b.erase(b.end() - 2, b.end()); }, {},
       Kind::kTruncated},
      {"bad magic", [](Bytes& b) { b[1] ^= 0x20; }, {}, Kind::kBadMagic},
      {"bad version", [](Bytes& b) { b[4] = 9; }, {}, Kind::kBadVersion},
      {"above max", [](Bytes&) {}, {0, 9}, Kind::kOversized},
      {"below min", [](Bytes&) {}, {11, 100}, Kind::kOversized},
      {"size varint past ten bytes",
       [&](Bytes& b) {
         b.resize(body);
         for (int i = 0; i < 12; ++i) b.push_back(0x80);
       },
       {}, Kind::kOversized},
      {"size beyond the default cap",
       [&](Bytes& b) {
         b.resize(body);
         put_varint(b, kMaxFramePayload + 1);
         b.resize(b.size() + 64, 0);
       },
       {}, Kind::kOversized},
      {"payload bit flip", [&](Bytes& b) { b[body + 4] ^= 0x04; }, {},
       Kind::kCrcMismatch},
      {"CRC bit flip", [](Bytes& b) { b.back() ^= 0x80; }, {},
       Kind::kCrcMismatch},
  };
  for (const Damage& c : cases) {
    SCOPED_TRACE(c.label);
    Bytes bytes = valid;
    c.apply(bytes);
    EXPECT_EQ(istream_verdict(bytes, c.bounds), c.expected);
    EXPECT_EQ(span_verdict(bytes, c.bounds), c.expected);
  }
}

TEST(FrameCodec, ReadersReturnThePayloadAndItsExtent) {
  const Bytes payload = {0xde, 0xad, 0xbe, 0xef};
  Bytes bytes = {0x55};  // a byte before the body, as in a trace block
  put_frame_body(bytes, payload);
  bytes.push_back(0x77);  // and one after it

  const SpanBody body = read_frame_body(bytes, 1, {});
  ASSERT_FALSE(body.error.has_value());
  EXPECT_TRUE(body.size_read);
  EXPECT_EQ(Bytes(body.payload.begin(), body.payload.end()), payload);
  EXPECT_EQ(body.end, bytes.size() - 1);

  std::istringstream in(std::string(bytes.begin() + 1, bytes.end()),
                        std::ios::binary);
  Bytes read = {9, 9, 9, 9, 9, 9, 9, 9};  // reused buffer: resized to fit
  EXPECT_EQ(read_frame_body(in, read, {}, "test"), body.end - 1);
  EXPECT_EQ(read, payload);
  EXPECT_EQ(in.get(), 0x77);
}

TEST(FrameCodec, SpanReaderTellsAHeaderCutFromAPayloadCut) {
  // Salvage counts a size varint that runs off the buffer as header damage
  // and a cut payload or CRC as a truncation; size_read carries that.
  const Bytes valid = frame_of({1, 2, 3});
  Bytes in_size(valid.begin(), valid.begin() + kFrameHeaderBytes);
  in_size.push_back(0x80);
  const SpanBody header_cut = read_frame_body(in_size, kFrameHeaderBytes, {});
  EXPECT_EQ(header_cut.error, Kind::kTruncated);
  EXPECT_FALSE(header_cut.size_read);

  const Bytes in_payload(valid.begin(), valid.end() - 5);
  const SpanBody payload_cut =
      read_frame_body(in_payload, kFrameHeaderBytes, {});
  EXPECT_EQ(payload_cut.error, Kind::kTruncated);
  EXPECT_TRUE(payload_cut.size_read);
}

TEST(FrameCodec, IstreamVarintReportsCleanEndOfStream) {
  std::uint64_t v = 7;
  std::istringstream empty("");
  EXPECT_EQ(read_varint(empty, v, "test"), 0u);
  EXPECT_EQ(v, 7u);

  std::istringstream two(std::string("\xac\x02", 2));
  EXPECT_EQ(read_varint(two, v, "test"), 2u);
  EXPECT_EQ(v, 300u);
}

TEST(FrameCodec, LittleEndianHelpersRoundTrip) {
  std::uint8_t buf[8];
  store_le(buf, std::uint64_t{0x0102030405060708});
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(load_le<std::uint64_t>(buf), 0x0102030405060708u);
  EXPECT_EQ(load_le<std::uint32_t>(buf), 0x05060708u);
  EXPECT_EQ(load_le<std::uint16_t>(buf), 0x0708u);
}

// ---- Every kind through the .dmnf readers ---------------------------------------

/// The golden 1-record trace.
Bytes one_record_trace() {
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write(golden_record());
    writer.finish();
  }
  const std::string s = buffer.str();
  return {s.begin(), s.end()};
}

/// A trace whose single 1-record block carries `payload` under a correct
/// size and CRC: the "CRC-clean but undecodable" construction kit.
Bytes trace_with_payload(const Bytes& payload) {
  Bytes bytes = one_record_trace();
  bytes.resize(kTraceHeaderBytes);
  put_varint(bytes, 1);
  put_frame_body(bytes, payload);
  bytes.push_back(0);  // end marker
  return bytes;
}

std::optional<Kind> strict_verdict(const Bytes& bytes) {
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    TraceReader reader(in);
    (void)reader.read_all();
  } catch (const FrameError& e) {
    return e.kind();
  }
  return std::nullopt;
}

std::optional<Kind> layout_verdict(const Bytes& bytes) {
  try {
    (void)trace_layout(bytes);
  } catch (const FrameError& e) {
    return e.kind();
  }
  return std::nullopt;
}

TEST(FrameTrace, StrictReaderAndLayoutThrowEveryKind) {
  const Bytes valid = one_record_trace();
  const std::size_t count_at = kTraceHeaderBytes;
  const std::size_t size_at = count_at + 1;
  const std::size_t payload_at = size_at + 1;

  struct Case {
    const char* label;
    Bytes bytes;
    Kind expected;
  };
  std::vector<Case> cases;
  cases.push_back({"cut header", Bytes(valid.begin(), valid.begin() + 8),
                   Kind::kTruncated});
  cases.push_back({"cut payload",
                   Bytes(valid.begin(), valid.begin() + payload_at + 3),
                   Kind::kTruncated});
  Bytes magic = valid;
  magic[0] ^= 0xff;
  cases.push_back({"bad magic", magic, Kind::kBadMagic});
  Bytes version = valid;
  version[4] = 2;
  cases.push_back({"bad version", version, Kind::kBadVersion});
  Bytes count(valid.begin(), valid.begin() + count_at);
  put_varint(count, 4097);  // a block holds at most 4096 records
  count.insert(count.end(), valid.begin() + size_at, valid.end());
  cases.push_back({"count outside bounds", count, Kind::kOversized});
  Bytes size(valid.begin(), valid.begin() + size_at);
  put_varint(size, 101);  // a 1-record payload is 10..100 bytes
  size.insert(size.end(), valid.begin() + payload_at, valid.end());
  cases.push_back({"size outside bounds", size, Kind::kOversized});
  Bytes crc = valid;
  crc[payload_at + 2] ^= 0x01;
  cases.push_back({"payload bit flip", crc, Kind::kCrcMismatch});
  // Base minute, then eight zero fields and a last field that runs off.
  cases.push_back({"undecodable payload",
                   trace_with_payload({0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80}),
                   Kind::kMalformedPayload});
  cases.push_back({"byte after the last record",
                   trace_with_payload({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
                   Kind::kTrailingBytes});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(strict_verdict(c.bytes), c.expected);
    EXPECT_EQ(layout_verdict(c.bytes), c.expected);
  }
  EXPECT_EQ(strict_verdict(valid), std::nullopt);
  EXPECT_EQ(layout_verdict(valid), std::nullopt);
}

TEST(FrameTrace, LayoutRejectsBytesAfterTheEndMarker) {
  Bytes bytes = one_record_trace();
  bytes.push_back(0);
  EXPECT_EQ(layout_verdict(bytes), Kind::kTrailingBytes);
}

}  // namespace
}  // namespace dm::netflow
