#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "netflow/trace_io.h"
#include "util/rng.h"

namespace dm::fault {
namespace {

using netflow::FlowRecord;

std::vector<FlowRecord> make_feed(std::size_t n, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  std::vector<FlowRecord> records(n);
  util::Minute minute = 0;
  for (auto& r : records) {
    if (rng.chance(0.05)) ++minute;
    r.minute = minute;
    r.src_ip = netflow::IPv4(static_cast<std::uint32_t>(rng()));
    r.dst_ip = netflow::IPv4(static_cast<std::uint32_t>(rng()));
    r.src_port = static_cast<std::uint16_t>(rng.below(65536));
    r.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    r.packets = static_cast<std::uint32_t>(1 + rng.below(100));
    r.bytes = r.packets * 100;
  }
  return records;
}

std::vector<std::uint8_t> make_trace_bytes(std::size_t records,
                                           std::uint64_t seed = 11) {
  std::stringstream buffer;
  netflow::TraceWriter writer(buffer, 4096);
  writer.write_all(make_feed(records, seed));
  writer.finish();
  const std::string s = buffer.str();
  return {s.begin(), s.end()};
}

TEST(FaultInjector, ByteCorruptionIsSeedDeterministic) {
  BytePlan plan;
  plan.corrupt_blocks = 2;
  plan.truncate_blocks = 1;
  plan.bit_flips = 3;

  auto a = make_trace_bytes(20'000);
  auto b = a;
  const ByteDamage da = FaultInjector(77).corrupt(a, plan);
  const ByteDamage db = FaultInjector(77).corrupt(b, plan);
  EXPECT_EQ(a, b);
  EXPECT_EQ(da.corrupted_blocks, db.corrupted_blocks);
  EXPECT_EQ(da.truncated_blocks, db.truncated_blocks);
  EXPECT_EQ(da.flipped_offsets, db.flipped_offsets);
  EXPECT_EQ(da.bytes_removed, db.bytes_removed);

  auto c = make_trace_bytes(20'000);
  const std::size_t clean_size = c.size();
  const ByteDamage dc = FaultInjector(78).corrupt(c, plan);
  EXPECT_NE(a, c);  // different seed, different damage
  // ...of the same planned shape.
  EXPECT_EQ(dc.corrupted_blocks.size(), 2u);
  EXPECT_EQ(dc.truncated_blocks.size(), 1u);
  EXPECT_EQ(dc.flipped_offsets.size(), 3u);
  EXPECT_EQ(c.size() + dc.bytes_removed, clean_size);
}

TEST(FaultInjector, CorruptAndTruncateTargetsAreDistinct) {
  BytePlan plan;
  plan.corrupt_blocks = 3;
  plan.truncate_blocks = 2;
  auto bytes = make_trace_bytes(30'000);  // 8 blocks
  const ByteDamage damage = FaultInjector(5).corrupt(bytes, plan);
  ASSERT_EQ(damage.corrupted_blocks.size(), 3u);
  ASSERT_EQ(damage.truncated_blocks.size(), 2u);
  for (const std::uint32_t t : damage.truncated_blocks) {
    EXPECT_EQ(std::count(damage.corrupted_blocks.begin(),
                         damage.corrupted_blocks.end(), t),
              0);
  }
  EXPECT_GT(damage.bytes_removed, 0u);
}

TEST(FaultInjector, TailTruncationRemovesEndMarker) {
  BytePlan plan;
  plan.truncate_tail = true;
  auto bytes = make_trace_bytes(10'000);
  const std::size_t original = bytes.size();
  const ByteDamage damage = FaultInjector(3).corrupt(bytes, plan);
  EXPECT_TRUE(damage.tail_truncated);
  EXPECT_LT(bytes.size(), original);
  EXPECT_EQ(damage.bytes_removed, original - bytes.size());
}

TEST(FaultInjector, DegradeIsSeedDeterministic) {
  RecordPlan plan;
  plan.duplicate_prob = 0.05;
  plan.reorder_window = 16;
  plan.loss_bursts = 2;
  plan.stuck_clock_prob = 0.02;

  const auto feed = make_feed(5000);
  RecordDamage da;
  RecordDamage db;
  const auto a = FaultInjector(99).degrade(feed, plan, &da);
  const auto b = FaultInjector(99).degrade(feed, plan, &db);
  EXPECT_EQ(a, b);
  EXPECT_EQ(da.duplicated, db.duplicated);
  EXPECT_EQ(da.displaced, db.displaced);
  EXPECT_EQ(da.dropped, db.dropped);
  EXPECT_EQ(da.stuck, db.stuck);
  EXPECT_EQ(da.lost_ranges, db.lost_ranges);
}

TEST(FaultInjector, FaultFamiliesAreIndependentStreams) {
  // Enabling duplication must not change which records a loss burst cuts:
  // each family draws from its own split stream of the seed.
  RecordPlan loss_only;
  loss_only.loss_bursts = 1;
  loss_only.loss_burst_minutes = 3;
  RecordPlan loss_and_dup = loss_only;
  loss_and_dup.duplicate_prob = 0.5;

  const auto feed = make_feed(5000);
  RecordDamage da;
  RecordDamage db;
  (void)FaultInjector(4).degrade(feed, loss_only, &da);
  (void)FaultInjector(4).degrade(feed, loss_and_dup, &db);
  EXPECT_EQ(da.lost_ranges, db.lost_ranges);
  EXPECT_EQ(da.dropped, db.dropped);
}

TEST(FaultInjector, ReorderDisplacementIsBounded) {
  RecordPlan plan;
  plan.reorder_window = 8;
  const auto feed = make_feed(4000);
  RecordDamage damage;
  const auto out = FaultInjector(13).degrade(feed, plan, &damage);
  ASSERT_EQ(out.size(), feed.size());
  EXPECT_GT(damage.displaced, 0u);

  // Every output record must sit within the window of its input position.
  // Records are not unique, so match multiset-style: each output position i
  // must find its record somewhere in feed[i-w, i+w].
  const std::ptrdiff_t w = 8;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(out.size()); ++i) {
    const auto lo = feed.begin() + std::max<std::ptrdiff_t>(0, i - w);
    const auto hi =
        feed.begin() +
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(feed.size()),
                                 i + w + 1);
    EXPECT_NE(std::find(lo, hi, out[static_cast<std::size_t>(i)]), hi)
        << "record at output position " << i
        << " displaced beyond the reorder window";
  }
}

TEST(FaultInjector, LossBurstsCutExactlyTheReportedMinutes) {
  RecordPlan plan;
  plan.loss_bursts = 2;
  plan.loss_burst_minutes = 4;
  const auto feed = make_feed(6000);
  RecordDamage damage;
  const auto out = FaultInjector(21).degrade(feed, plan, &damage);
  ASSERT_EQ(damage.lost_ranges.size(), 2u);

  const auto in_lost = [&damage](util::Minute m) {
    for (const auto& [from, to] : damage.lost_ranges) {
      if (m >= from && m < to) return true;
    }
    return false;
  };
  std::uint64_t expected_dropped = 0;
  for (const auto& r : feed) {
    if (in_lost(r.minute)) ++expected_dropped;
  }
  EXPECT_EQ(damage.dropped, expected_dropped);
  EXPECT_EQ(out.size(), feed.size() - expected_dropped);
  for (const auto& r : out) EXPECT_FALSE(in_lost(r.minute));
}

TEST(FaultInjector, DuplicatesLandAdjacentAndAreCounted) {
  RecordPlan plan;
  plan.duplicate_prob = 0.25;
  const auto feed = make_feed(4000);
  RecordDamage damage;
  const auto out = FaultInjector(8).degrade(feed, plan, &damage);
  EXPECT_EQ(out.size(), feed.size() + damage.duplicated);
  EXPECT_GT(damage.duplicated, 500u);  // ~1000 expected at p=0.25

  std::uint64_t adjacent_pairs = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i] == out[i - 1]) ++adjacent_pairs;
  }
  EXPECT_GE(adjacent_pairs, damage.duplicated);
}

TEST(FaultInjector, StuckClockFreezesTimestamps) {
  RecordPlan plan;
  plan.stuck_clock_prob = 0.1;
  const auto feed = make_feed(4000);
  RecordDamage damage;
  const auto out = FaultInjector(31).degrade(feed, plan, &damage);
  ASSERT_EQ(out.size(), feed.size());
  EXPECT_GT(damage.stuck, 0u);
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].minute != feed[i].minute) ++differing;
  }
  EXPECT_EQ(differing, damage.stuck);
}

TEST(FaultInjector, EmptyPlanIsIdentity) {
  const auto feed = make_feed(1000);
  RecordDamage damage;
  const auto out = FaultInjector(1).degrade(feed, RecordPlan{}, &damage);
  EXPECT_EQ(out, feed);
  EXPECT_EQ(damage.duplicated, 0u);
  EXPECT_EQ(damage.displaced, 0u);
  EXPECT_EQ(damage.dropped, 0u);
  EXPECT_EQ(damage.stuck, 0u);

  auto bytes = make_trace_bytes(5000);
  const auto original = bytes;
  const ByteDamage byte_damage = FaultInjector(1).corrupt(bytes, BytePlan{});
  EXPECT_EQ(bytes, original);
  EXPECT_EQ(byte_damage.bytes_removed, 0u);
}

}  // namespace
}  // namespace dm::fault
