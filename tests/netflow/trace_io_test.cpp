#include "netflow/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>

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
