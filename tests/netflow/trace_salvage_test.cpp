// Degraded-feed acceptance tests for the salvaging trace reader: for k
// damaged blocks the salvage walk must recover every intact block and the
// IngestReport must describe exactly the injected damage.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <random>
#include <sstream>

#include "fault/fault.h"
#include "netflow/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

constexpr std::size_t kBlockRecords = 4096;

std::vector<FlowRecord> sample_records(std::size_t n, std::uint64_t seed = 17) {
  util::Rng rng(seed);
  std::vector<FlowRecord> records(n);
  util::Minute minute = 50;
  for (auto& r : records) {
    if (rng.chance(0.02)) ++minute;
    r.minute = minute;
    r.src_ip = IPv4(static_cast<std::uint32_t>(rng()));
    r.dst_ip = IPv4(static_cast<std::uint32_t>(rng()));
    r.src_port = static_cast<std::uint16_t>(rng.below(65536));
    r.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    r.protocol = rng.chance(0.5) ? Protocol::kTcp : Protocol::kUdp;
    r.tcp_flags = static_cast<TcpFlags>(rng.below(64));
    r.packets = static_cast<std::uint32_t>(1 + rng.below(500));
    r.bytes = r.packets * (40 + rng.below(1000));
  }
  return records;
}

std::vector<std::uint8_t> serialize(const std::vector<FlowRecord>& records,
                                    std::uint32_t sampling = 4096) {
  std::stringstream buffer;
  TraceWriter writer(buffer, sampling);
  writer.write_all(records);
  writer.finish();
  const std::string s = buffer.str();
  return {s.begin(), s.end()};
}

SalvageResult salvage(const std::vector<std::uint8_t>& bytes) {
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  TraceReader reader(in, ReadMode::kSalvage);
  SalvageResult result;
  result.records = reader.read_all();
  result.sampling = reader.sampling_denominator();
  result.report = reader.report();
  return result;
}

/// The records that survive when `lost_blocks` (clean-layout indices) are
/// destroyed: every other block's records, in order.
std::vector<FlowRecord> surviving_records(
    const std::vector<FlowRecord>& records,
    const std::vector<std::uint32_t>& lost_blocks) {
  std::vector<FlowRecord> kept;
  kept.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto block = static_cast<std::uint32_t>(i / kBlockRecords);
    if (std::find(lost_blocks.begin(), lost_blocks.end(), block) ==
        lost_blocks.end()) {
      kept.push_back(records[i]);
    }
  }
  return kept;
}

/// Runs of consecutive block indices — adjacent damaged blocks merge into
/// one lost range during the salvage scan.
std::size_t merged_runs(std::vector<std::uint32_t> blocks) {
  std::sort(blocks.begin(), blocks.end());
  std::size_t runs = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i == 0 || blocks[i] != blocks[i - 1] + 1) ++runs;
  }
  return runs;
}

TEST(TraceSalvage, CleanTraceReportsClean) {
  const auto records = sample_records(30'000);
  const auto result = salvage(serialize(records));
  EXPECT_EQ(result.records, records);
  EXPECT_EQ(result.sampling, 4096u);
  EXPECT_TRUE(result.report.clean());
  EXPECT_TRUE(result.report.header_valid);
  EXPECT_TRUE(result.report.end_marker_seen);
  EXPECT_EQ(result.report.blocks_decoded, 8u);  // ceil(30000 / 4096)
  EXPECT_EQ(result.report.records_recovered, records.size());
  EXPECT_EQ(result.report.bytes_lost(), 0u);
}

class TraceSalvageDamage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceSalvageDamage, RecoversEveryIntactBlockAfterCorruption) {
  const std::size_t k = GetParam();
  // 40 blocks so even k=10 leaves plenty of intact ones.
  const auto records = sample_records(40 * kBlockRecords);
  auto bytes = serialize(records);
  const auto clean_layout = trace_layout(bytes);
  ASSERT_EQ(clean_layout.size(), 40u);

  fault::BytePlan plan;
  plan.corrupt_blocks = k;
  const fault::ByteDamage damage = fault::FaultInjector(100 + k).corrupt(bytes, plan);
  ASSERT_EQ(damage.corrupted_blocks.size(), k);

  const auto result = salvage(bytes);
  // Every intact block's records come back, in order.
  EXPECT_EQ(result.records, surviving_records(records, damage.corrupted_blocks));
  EXPECT_TRUE(result.report.header_valid);
  EXPECT_TRUE(result.report.end_marker_seen);
  EXPECT_FALSE(result.report.clean());

  // The report describes exactly the injected damage: one lost range per
  // run of adjacent corrupted blocks, each classified as a CRC mismatch,
  // covering exactly the damaged blocks' bytes.
  const std::size_t runs = merged_runs(damage.corrupted_blocks);
  EXPECT_EQ(result.report.blocks_decoded, 40u - k);
  EXPECT_EQ(result.report.lost_ranges.size(), runs);
  EXPECT_EQ(result.report.blocks_skipped, runs);
  EXPECT_EQ(result.report.crc_mismatches, runs);
  EXPECT_EQ(result.report.truncations, 0u);
  EXPECT_EQ(result.report.decode_errors, 0u);
  EXPECT_EQ(result.report.varint_errors, 0u);

  std::uint64_t damaged_bytes = 0;
  for (const std::uint32_t b : damage.corrupted_blocks) {
    damaged_bytes += clean_layout[b].size;
  }
  EXPECT_EQ(result.report.bytes_lost(), damaged_bytes);
  for (const auto& range : result.report.lost_ranges) {
    // Each range starts exactly at a damaged block's start offset.
    const bool at_block_start =
        std::any_of(damage.corrupted_blocks.begin(),
                    damage.corrupted_blocks.end(), [&](std::uint32_t b) {
                      return clean_layout[b].offset == range.offset;
                    });
    EXPECT_TRUE(at_block_start) << "lost range at unexpected offset " << range.offset;
  }
}

TEST_P(TraceSalvageDamage, RecoversEveryIntactBlockAfterMidFileTruncation) {
  const std::size_t k = GetParam();
  const auto records = sample_records(40 * kBlockRecords, 23);
  auto bytes = serialize(records);

  fault::BytePlan plan;
  plan.truncate_blocks = k;
  const fault::ByteDamage damage = fault::FaultInjector(200 + k).corrupt(bytes, plan);
  ASSERT_EQ(damage.truncated_blocks.size(), k);
  ASSERT_GT(damage.bytes_removed, 0u);

  const auto result = salvage(bytes);
  EXPECT_EQ(result.records, surviving_records(records, damage.truncated_blocks));
  EXPECT_TRUE(result.report.end_marker_seen);
  EXPECT_EQ(result.report.blocks_decoded, 40u - k);
  const std::size_t runs = merged_runs(damage.truncated_blocks);
  EXPECT_EQ(result.report.lost_ranges.size(), runs);
  // Each damaged region loses its blocks' bytes minus what truncation
  // physically removed from the file.
  std::uint64_t damaged_bytes = 0;
  const auto clean_layout = trace_layout(serialize(sample_records(40 * kBlockRecords, 23)));
  for (const std::uint32_t b : damage.truncated_blocks) {
    damaged_bytes += clean_layout[b].size;
  }
  EXPECT_EQ(result.report.bytes_lost(), damaged_bytes - damage.bytes_removed);
}

INSTANTIATE_TEST_SUITE_P(DamagedBlocks, TraceSalvageDamage,
                         ::testing::Values(1, 3, 10));

TEST(TraceSalvage, TailTruncationLosesOnlyTheFinalBlock) {
  const auto records = sample_records(6 * kBlockRecords);
  auto bytes = serialize(records);

  fault::BytePlan plan;
  plan.truncate_tail = true;
  const fault::ByteDamage damage = fault::FaultInjector(7).corrupt(bytes, plan);
  ASSERT_TRUE(damage.tail_truncated);

  const auto result = salvage(bytes);
  EXPECT_EQ(result.records, surviving_records(records, {5}));
  EXPECT_FALSE(result.report.end_marker_seen);
  EXPECT_EQ(result.report.blocks_decoded, 5u);
  ASSERT_EQ(result.report.lost_ranges.size(), 1u);
  EXPECT_EQ(result.report.truncations, 1u);
}

TEST(TraceSalvage, DamagedHeaderStillRecoversBlocks) {
  const auto records = sample_records(3 * kBlockRecords);
  auto bytes = serialize(records);
  bytes[0] ^= 0xff;  // destroy the magic

  const auto result = salvage(bytes);
  EXPECT_FALSE(result.report.header_valid);
  EXPECT_FALSE(result.report.clean());
  // All three blocks decode; the mangled header is the only loss.
  EXPECT_EQ(result.records, records);
  EXPECT_EQ(result.report.blocks_decoded, 3u);
  EXPECT_TRUE(result.report.end_marker_seen);
}

TEST(TraceSalvage, StrictModeErrorsAreLocated) {
  const auto records = sample_records(3 * kBlockRecords);
  auto bytes = serialize(records);
  const auto layout = trace_layout(bytes);

  // Flip a payload bit in block 1: strict mode must name the block, the
  // byte offset, and both CRC values.
  bytes[layout[1].payload_offset + 10] ^= 0x01;
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  TraceReader reader(in);
  try {
    (void)reader.read_all();
    FAIL() << "corrupted trace read strictly must throw";
  } catch (const dm::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("block 1"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(layout[1].offset)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("expected 0x"), std::string::npos) << what;
    EXPECT_NE(what.find("actual 0x"), std::string::npos) << what;
  }
}

TEST(TraceSalvage, StrictModeTruncationIsLocated) {
  const auto records = sample_records(2 * kBlockRecords);
  auto bytes = serialize(records);
  const auto layout = trace_layout(bytes);
  bytes.resize(layout[1].payload_offset + 5);  // cut inside block 1's payload

  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  TraceReader reader(in);
  try {
    (void)reader.read_all();
    FAIL() << "truncated trace read strictly must throw";
  } catch (const dm::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated payload"), std::string::npos) << what;
    EXPECT_NE(what.find("block 1"), std::string::npos) << what;
  }
}

// Randomized corruption soak: arbitrary byte damage must never crash the
// salvage reader, and its report must stay self-consistent. Runs a handful
// of seeds by default; DM_SOAK_SECONDS extends it into the CI soak stage
// (the failing seed is printed on any assertion).
TEST(TraceSalvage, SalvageSoak) {
  const char* env = std::getenv("DM_SOAK_SECONDS");
  const double seconds = env != nullptr ? std::atof(env) : 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000));

  std::random_device device;
  const auto base_records = sample_records(8 * kBlockRecords, 3);
  const auto clean = serialize(base_records);
  std::size_t iterations = 0;
  do {
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(device()) << 32) | device();
    SCOPED_TRACE("soak seed: " + std::to_string(seed));
    util::Rng rng(seed);

    auto bytes = clean;
    fault::BytePlan plan;
    plan.bit_flips = rng.below(64);
    plan.corrupt_blocks = rng.below(4);
    plan.truncate_blocks = rng.below(3);
    plan.truncate_tail = rng.chance(0.3);
    const fault::ByteDamage damage = fault::FaultInjector(seed).corrupt(bytes, plan);
    EXPECT_EQ(bytes.size() + damage.bytes_removed, clean.size());
    // Occasionally hack off an arbitrary tail as well.
    if (rng.chance(0.25) && !bytes.empty()) {
      bytes.resize(1 + rng.below(bytes.size()));
    }

    const auto result = salvage(bytes);
    EXPECT_LE(result.records.size(), base_records.size());
    EXPECT_EQ(result.records.size(), result.report.records_recovered);
    EXPECT_EQ(result.report.bytes_scanned, bytes.size());
    EXPECT_LE(result.report.bytes_lost(), bytes.size());
    EXPECT_EQ(result.report.lost_ranges.size(), result.report.blocks_skipped);
    // Whatever was recovered must be a subsequence of the original records.
    auto it = base_records.begin();
    for (const auto& r : result.records) {
      it = std::find(it, base_records.end(), r);
      ASSERT_NE(it, base_records.end())
          << "salvage fabricated a record that was never written";
      ++it;
    }
    ++iterations;
  } while (std::chrono::steady_clock::now() < deadline || iterations < 5);
  SUCCEED() << iterations << " soak iterations";
}

}  // namespace
}  // namespace dm::netflow
