// Study-level differential verification of the block decode pipeline: the
// window build aggregates through DecodedBlocks, so (a) full studies must
// stay tuple-identical across thread counts in both resident and spill mode
// — the block pipeline inherits the determinism contract — and (b) draining
// a finished study's resident store through ColumnarRecords::BlockCursor,
// entered by reset(view, n) as build_windows_blocks enters it, must be
// field-for-field identical to the scalar Cursor, the retained differential
// oracle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <string>

#include "core/study.h"
#include "integration/study_exhibits.h"
#include "netflow/columnar_records.h"
#include "netflow/segment_store.h"

namespace dm {
namespace {

namespace fs = std::filesystem;

using test_support::Exhibits;
using test_support::exhibits_of;
using test_support::expect_same_study;

sim::ScenarioConfig base_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.seed = 31337;
  return config;
}

fs::path scratch_dir(const std::string& suffix) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dm_block_eq_" + std::to_string(::getpid()) + "_" + suffix);
  fs::remove_all(dir);
  return dir;
}

/// Drains all of `view` through a BlockCursor entered by reset(view, n)
/// against the Cursor ColumnarRecords::seek(view, 0) returns — every decoded
/// field, base_index, and block-capacity bounds.
void expect_blocks_match_cursor(const netflow::ColumnarView& view) {
  netflow::ColumnarRecords::BlockCursor blocks;
  blocks.reset(view, view.records);
  auto cursor = netflow::ColumnarRecords::seek(view, 0);
  netflow::DecodedBlock block;
  std::size_t i = 0;
  while (blocks.next(block)) {
    ASSERT_GT(block.count, 0u);
    ASSERT_LE(block.count, +netflow::DecodedBlock::kCapacity);
    ASSERT_EQ(block.base_index, i);
    for (std::size_t k = 0; k < block.count; ++k, ++i) {
      ASSERT_TRUE(cursor.next()) << "blocks decoded past the cursor";
      const netflow::FlowRecord& r = cursor.record();
      const auto dir = static_cast<netflow::Direction>(block.direction[k]);
      ASSERT_EQ(dir, cursor.direction()) << "record " << i;
      const netflow::IPv4 vip =
          dir == netflow::Direction::kInbound ? r.dst_ip : r.src_ip;
      const netflow::IPv4 remote =
          dir == netflow::Direction::kInbound ? r.src_ip : r.dst_ip;
      ASSERT_EQ(block.vip[k], vip.value()) << "record " << i;
      ASSERT_EQ(block.remote[k], remote.value()) << "record " << i;
      ASSERT_EQ(block.minute[k], r.minute) << "record " << i;
      ASSERT_EQ(block.src_port[k], r.src_port) << "record " << i;
      ASSERT_EQ(block.dst_port[k], r.dst_port) << "record " << i;
      ASSERT_EQ(static_cast<netflow::Protocol>(block.protocol[k]), r.protocol)
          << "record " << i;
      ASSERT_EQ(static_cast<netflow::TcpFlags>(block.tcp_flags[k]),
                r.tcp_flags)
          << "record " << i;
      ASSERT_EQ(block.packets[k], r.packets) << "record " << i;
      ASSERT_EQ(block.bytes[k], r.bytes) << "record " << i;
    }
  }
  EXPECT_EQ(i, view.records);
  EXPECT_FALSE(cursor.next()) << "scalar cursor has records blocks missed";
}

TEST(BlockEquivalence, StudyBlocksMatchScalarAcrossThreadsAndSpill) {
  auto baseline_config = base_config();
  baseline_config.thread_count = 1;
  const core::Study baseline(baseline_config);
  ASSERT_GT(baseline.record_count(), 0u);
  ASSERT_FALSE(baseline.detection().incidents.empty());
  const Exhibits baseline_exhibits = exhibits_of(baseline);

  for (const bool spill : {false, true}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(spill ? "spill" : "resident") +
                   " threads=" + std::to_string(threads));
      const fs::path dir = scratch_dir((spill ? "s" : "r") + std::string("_t") +
                                       std::to_string(threads));
      auto config = base_config();
      config.thread_count = threads;
      if (spill) {
        // Floor the seal threshold so the smoke trace spans segments.
        config.spill.directory = dir.string();
        config.spill.ram_budget_bytes = 2ull << 20;
      }
      const core::Study study(config);
      const netflow::RecordStore& store = study.trace().store();
      ASSERT_EQ(store.spilled(), spill);

      // The study the block pipeline produced must match the baseline's
      // windows, incidents, and exhibits tuple-for-tuple.
      expect_same_study(baseline, baseline_exhibits, study);

      // And a resident store must block-decode identically to the scalar
      // cursor over its whole length.
      if (!spill) expect_blocks_match_cursor(store.resident().view());
      fs::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace dm
