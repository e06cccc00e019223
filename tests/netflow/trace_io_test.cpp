#include "netflow/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>

#include "netflow/varint.h"
#include "util/error.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

std::vector<FlowRecord> sample_records(std::size_t n, std::uint64_t seed = 9) {
  util::Rng rng(seed);
  std::vector<FlowRecord> records(n);
  util::Minute minute = 100;
  for (auto& r : records) {
    if (rng.chance(0.1)) minute += static_cast<util::Minute>(rng.below(5));
    r.minute = minute;
    r.src_ip = IPv4(static_cast<std::uint32_t>(rng()));
    r.dst_ip = IPv4(static_cast<std::uint32_t>(rng()));
    r.src_port = static_cast<std::uint16_t>(rng.below(65536));
    r.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    r.protocol = rng.chance(0.5) ? Protocol::kTcp : Protocol::kUdp;
    r.tcp_flags = static_cast<TcpFlags>(rng.below(64));
    r.packets = static_cast<std::uint32_t>(1 + rng.below(1000));
    r.bytes = r.packets * (40 + rng.below(1460));
  }
  return records;
}

TEST(TraceIo, RoundTripInMemory) {
  const auto records = sample_records(10'000);
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write_all(records);
    writer.finish();
    EXPECT_EQ(writer.records_written(), records.size());
  }
  TraceReader reader(buffer);
  EXPECT_EQ(reader.sampling_denominator(), 4096u);
  const auto loaded = reader.read_all();
  ASSERT_EQ(loaded.size(), records.size());
  EXPECT_EQ(loaded, records);
}

TEST(TraceIo, EmptyTrace) {
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 1024);
    writer.finish();
  }
  TraceReader reader(buffer);
  EXPECT_EQ(reader.sampling_denominator(), 1024u);
  EXPECT_TRUE(reader.read_all().empty());
}

TEST(TraceIo, SingleRecord) {
  FlowRecord r;
  r.minute = -5;  // negative minutes must survive zigzag
  r.src_ip = IPv4::from_octets(1, 2, 3, 4);
  r.dst_ip = IPv4::from_octets(100, 64, 0, 1);
  r.packets = 1;
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write(r);
    writer.finish();
  }
  TraceReader reader(buffer);
  FlowRecord loaded;
  ASSERT_TRUE(reader.next(loaded));
  EXPECT_EQ(loaded, r);
  EXPECT_FALSE(reader.next(loaded));
}

TEST(TraceIo, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOTATRACE";
  EXPECT_THROW(TraceReader reader(buffer), dm::FormatError);
}

TEST(TraceIo, TruncationDetected) {
  const auto records = sample_records(5000);
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write_all(records);
    writer.finish();
  }
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() * 2 / 3));
  TraceReader reader(truncated);
  EXPECT_THROW(
      {
        FlowRecord r;
        while (reader.next(r)) {
        }
      },
      dm::FormatError);
}

TEST(TraceIo, CorruptionDetectedByCrc) {
  const auto records = sample_records(5000);
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write_all(records);
    writer.finish();
  }
  std::string data = buffer.str();
  data[data.size() / 2] ^= 0x40;  // flip a bit mid-payload
  std::stringstream corrupted(data);
  TraceReader reader(corrupted);
  EXPECT_THROW(
      {
        FlowRecord r;
        while (reader.next(r)) {
        }
      },
      dm::FormatError);
}

TEST(TraceIo, FileRoundTrip) {
  const auto records = sample_records(2000);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dm_trace_test.dmnf").string();
  write_trace_file(path, records, 4096);
  std::uint32_t sampling = 0;
  const auto loaded = read_trace_file(path, &sampling);
  EXPECT_EQ(sampling, 4096u);
  EXPECT_EQ(loaded, records);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/trace.dmnf"), dm::FormatError);
}

/// A trace's bytes, as written by TraceWriter.
std::vector<std::uint8_t> trace_bytes(const std::vector<FlowRecord>& records) {
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write_all(records);
    writer.finish();
  }
  const std::string s = buffer.str();
  return {s.begin(), s.end()};
}

/// Reads `bytes` strictly and returns the FrameError kind it throws.
FrameError::Kind strict_read_error(const std::vector<std::uint8_t>& bytes) {
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    TraceReader reader(in);
    (void)reader.read_all();
  } catch (const FrameError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trace: ", 0), 0u) << e.what();
    return e.kind();
  }
  ADD_FAILURE() << "damaged trace read strictly must throw";
  return FrameError::Kind::kMalformedPayload;
}

TEST(TraceIo, ExtremeMinutesRoundTrip) {
  // Minute deltas wrap mod 2^64, so one block can hold both ends of the
  // int64 range without signed overflow on either side.
  auto records = sample_records(3);
  records[0].minute = INT64_MAX;
  records[1].minute = INT64_MIN;
  records[2].minute = 0;
  const auto bytes = trace_bytes(records);
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  TraceReader reader(in);
  EXPECT_EQ(reader.read_all(), records);
}

TEST(TraceIo, HugePayloadSizeIsRejectedBeforeAllocating) {
  // A valid header, a 1-record block claiming a 2^62-byte payload, then 20
  // zero bytes: the size is checked against the count's bounds first.
  std::vector<std::uint8_t> bytes = trace_bytes({});
  bytes.resize(kTraceHeaderBytes);
  put_varint(bytes, 1);
  put_varint(bytes, std::uint64_t{1} << 62);
  bytes.resize(bytes.size() + 20, 0);
  EXPECT_EQ(strict_read_error(bytes), FrameError::Kind::kOversized);
}

TEST(TraceIo, HugeRecordCountIsRejectedBeforeAllocating) {
  // A valid 1-record payload and CRC behind a record count of 2^62. The
  // CRC does not cover the count, so the count is bounded on its own.
  const auto good = trace_bytes(sample_records(1));
  const auto layout = trace_layout(good);
  ASSERT_EQ(layout.size(), 1u);
  ASSERT_EQ(layout[0].record_count, 1u);
  std::vector<std::uint8_t> bytes(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(
                                                     layout[0].offset));
  put_varint(bytes, std::uint64_t{1} << 62);
  bytes.insert(bytes.end(),
               good.begin() + static_cast<std::ptrdiff_t>(layout[0].offset + 1),
               good.end());
  EXPECT_EQ(strict_read_error(bytes), FrameError::Kind::kOversized);
}

TEST(TraceIo, ReadAllAfterNextReturnsTheRestSizedExactly) {
  const auto records = sample_records(3 * 4096 + 100);
  const auto bytes = trace_bytes(records);
  for (const std::size_t taken :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{4096},
        std::size_t{5000}, records.size()}) {
    SCOPED_TRACE(taken);
    std::stringstream in(std::string(bytes.begin(), bytes.end()));
    TraceReader reader(in);
    FlowRecord r;
    for (std::size_t i = 0; i < taken; ++i) {
      ASSERT_TRUE(reader.next(r));
      ASSERT_EQ(r, records[i]);
    }
    const std::vector<FlowRecord> rest = reader.read_all();
    EXPECT_EQ(rest, std::vector<FlowRecord>(
                        records.begin() + static_cast<std::ptrdiff_t>(taken),
                        records.end()));
    EXPECT_EQ(rest.capacity(), rest.size());
    EXPECT_FALSE(reader.next(r));
    EXPECT_TRUE(reader.read_all().empty());
    EXPECT_TRUE(reader.report().end_marker_seen);
    EXPECT_EQ(reader.report().records_recovered, records.size());
    EXPECT_EQ(reader.report().blocks_decoded, 4u);
  }
}

TEST(TraceIo, ReadAllAfterNextLocatesDamage) {
  const auto records = sample_records(3 * 4096 + 100);
  auto bytes = trace_bytes(records);
  const auto layout = trace_layout(bytes);
  bytes[layout[2].payload_offset + 7] ^= 0x10;
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  TraceReader reader(in);
  FlowRecord r;
  for (std::size_t i = 0; i < 5000; ++i) ASSERT_TRUE(reader.next(r));
  try {
    (void)reader.read_all();
    FAIL() << "a damaged block must throw";
  } catch (const FrameError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.kind(), FrameError::Kind::kCrcMismatch);
    EXPECT_NE(what.find("block 2 at byte " + std::to_string(layout[2].offset)),
              std::string::npos)
        << what;
  }
}

TEST(TraceIo, ReadAllAndNextWordDamageAlike) {
  const auto records = sample_records(2 * 4096);
  const auto good = trace_bytes(records);
  const auto layout = trace_layout(good);
  std::vector<std::vector<std::uint8_t>> damaged;
  damaged.emplace_back(good.begin(), good.end() - 1);  // no end marker
  damaged.emplace_back(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(
                                                      layout[1].payload_offset + 9));
  damaged.emplace_back(good.begin(), good.end() - 3);  // cut inside the CRC
  damaged.push_back(good);
  damaged.back()[layout[1].payload_offset + 3] ^= 0x01;
  damaged.push_back(good);
  damaged.back()[layout[1].offset] = 0xff;  // count varint runs on
  for (const auto& bytes : damaged) {
    const auto verdict = [&](bool all) {
      std::stringstream in(std::string(bytes.begin(), bytes.end()));
      TraceReader reader(in);
      try {
        if (all) {
          (void)reader.read_all();
        } else {
          FlowRecord r;
          while (reader.next(r)) {
          }
        }
      } catch (const FrameError& e) {
        return std::make_pair(e.kind(), std::string(e.what()));
      }
      return std::make_pair(FrameError::Kind::kTrailingBytes, std::string("no error"));
    };
    EXPECT_EQ(verdict(true), verdict(false));
  }
}

/// The FrameError text a strict read of `bytes` throws, by read_all or by
/// draining next(); "no error" when it throws none.
std::string strict_error_text(const std::vector<std::uint8_t>& bytes,
                              bool all) {
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    TraceReader reader(in);
    if (all) {
      (void)reader.read_all();
    } else {
      FlowRecord r;
      while (reader.next(r)) {
      }
    }
  } catch (const FrameError& e) {
    return e.what();
  }
  return "no error";
}

/// The text next() throws for a CRC hit in the block at `span`.
std::string crc_error_text(const std::vector<std::uint8_t>& bytes,
                           const BlockSpan& span, std::uint64_t block) {
  const std::span<const std::uint8_t> payload(
      bytes.data() + span.payload_offset, span.payload_size);
  char crcs[64];
  std::snprintf(crcs, sizeof crcs, "expected 0x%08x, actual 0x%08x",
                load_le<std::uint32_t>(payload.data() + payload.size()),
                crc32(payload));
  return "trace: CRC mismatch: " + std::string(crcs) + " (block " +
         std::to_string(block) + " at byte " + std::to_string(span.offset) +
         ")";
}

// read_all decodes traces of 32 blocks or more on a pool; 31 blocks stay on
// the calling thread, so both sides of the threshold are covered.
TEST(TraceIo, ReadAllOnAndOffThePoolMatchesNext) {
  for (const std::size_t blocks : {std::size_t{31}, std::size_t{100}}) {
    SCOPED_TRACE(blocks);
    const auto bytes = trace_bytes(sample_records(blocks * 4096, blocks));
    std::vector<FlowRecord> drained;
    {
      std::stringstream in(std::string(bytes.begin(), bytes.end()));
      TraceReader reader(in);
      FlowRecord r;
      while (reader.next(r)) drained.push_back(r);
    }
    ASSERT_EQ(drained.size(), blocks * 4096);
    for (const std::size_t taken :
         {std::size_t{0}, std::size_t{1}, std::size_t{4095},
          std::size_t{4096}, std::size_t{5000}}) {
      SCOPED_TRACE(taken);
      std::stringstream in(std::string(bytes.begin(), bytes.end()));
      TraceReader reader(in);
      FlowRecord r;
      for (std::size_t i = 0; i < taken; ++i) ASSERT_TRUE(reader.next(r));
      const std::vector<FlowRecord> rest = reader.read_all();
      EXPECT_EQ(rest, std::vector<FlowRecord>(
                          drained.begin() + static_cast<std::ptrdiff_t>(taken),
                          drained.end()));
      EXPECT_EQ(rest.capacity(), rest.size());
      EXPECT_TRUE(reader.report().end_marker_seen);
      EXPECT_EQ(reader.report().records_recovered, drained.size());
      EXPECT_EQ(reader.report().blocks_decoded, blocks);
      EXPECT_EQ(reader.report().bytes_scanned, bytes.size() - 1);
    }
  }
}

// On a 100-block trace read_all decodes on the pool, yet throws the text
// next() throws: that of the lowest-index damaged block, or of the header
// the block walk stopped at.
TEST(TraceIo, ReadAllOnThePoolWordsDamageAsNext) {
  const auto good = trace_bytes(sample_records(100 * 4096));
  const auto layout = trace_layout(good);
  ASSERT_EQ(layout.size(), 100u);
  // A full block's count, 4096, is the varint 80 20; ff 7f is 16383.
  ASSERT_EQ(good[layout[70].offset], 0x80);
  ASSERT_EQ(good[layout[70].offset + 1], 0x20);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::string text;
  };
  std::vector<Case> cases;
  {
    Case c{"CRC hits in blocks 40 and 10", good, ""};
    c.bytes[layout[40].payload_offset + 5] ^= 0x10;
    c.bytes[layout[10].payload_offset + 7] ^= 0x10;
    c.text = crc_error_text(c.bytes, layout[10], 10);
    cases.push_back(std::move(c));
  }
  cases.push_back(
      {"payload cut inside block 60",
       {good.begin(), good.begin() + static_cast<std::ptrdiff_t>(
                                         layout[60].payload_offset + 9)},
       "trace: truncated payload (wanted " +
           std::to_string(layout[60].payload_size) + " bytes) (block 60 at byte " +
           std::to_string(layout[60].offset) + ")"});
  cases.push_back({"last byte cut",
                   {good.begin(), good.end() - 1},
                   "trace: missing end marker (block 100 at byte " +
                       std::to_string(good.size() - 1) + ")"});
  {
    Case c{"count ff 7f at block 70, CRC hit at block 20", good, ""};
    c.bytes[layout[70].offset] = 0xff;
    c.bytes[layout[70].offset + 1] = 0x7f;
    c.bytes[layout[20].payload_offset + 3] ^= 0x01;
    c.text = crc_error_text(c.bytes, layout[20], 20);
    cases.push_back(std::move(c));
  }
  {
    Case c{"count ff 7f at block 70", good, ""};
    c.bytes[layout[70].offset] = 0xff;
    c.bytes[layout[70].offset + 1] = 0x7f;
    c.text = "trace: implausible record count 16383 (block 70 at byte " +
             std::to_string(layout[70].offset) + ")";
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(strict_error_text(c.bytes, false), c.text);
    EXPECT_EQ(strict_error_text(c.bytes, true), c.text);
  }
}

// Property: round trip across block boundaries (block size is 4096 records).
class TraceIoSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceIoSizes, RoundTripsExactly) {
  const auto records = sample_records(GetParam(), GetParam() + 1);
  std::stringstream buffer;
  {
    TraceWriter writer(buffer, 4096);
    writer.write_all(records);
    writer.finish();
  }
  TraceReader reader(buffer);
  EXPECT_EQ(reader.read_all(), records);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TraceIoSizes,
                         ::testing::Values(1, 2, 4095, 4096, 4097, 8192, 9000));

}  // namespace
}  // namespace dm::netflow
