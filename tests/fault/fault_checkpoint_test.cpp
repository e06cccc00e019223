// corrupt_checkpoint + KillSwitch unit tests: the checkpoint damage plans
// must be seed/index-deterministic with exact ledgers (the crash matrix
// trusts the CheckpointDamage report as ground truth), and the kill switch
// must fire exactly once at its armed (step, occurrence).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "netflow/frame.h"

namespace dm::fault {
namespace {

constexpr std::size_t kHeaderBytes = netflow::kFrameHeaderBytes;

std::vector<std::uint8_t> sample_file(std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 3));
  }
  return bytes;
}

std::size_t bit_difference(const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b) {
  std::size_t bits = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    bits += static_cast<std::size_t>(__builtin_popcount(a[i] ^ b[i]));
  }
  return bits;
}

TEST(CorruptCheckpoint, IsSeedAndIndexDeterministic) {
  const auto clean = sample_file(512);
  CheckpointPlan plan;
  plan.bit_flips = 4;
  plan.truncate_tail = true;

  auto a = clean;
  auto b = clean;
  const CheckpointDamage da = FaultInjector(7).corrupt_checkpoint(a, plan, 3);
  const CheckpointDamage db = FaultInjector(7).corrupt_checkpoint(b, plan, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(da.flipped_offsets, db.flipped_offsets);
  EXPECT_EQ(da.bytes_removed, db.bytes_removed);

  // A different file index takes different (but still reproducible) damage.
  auto c = clean;
  const CheckpointDamage dc = FaultInjector(7).corrupt_checkpoint(c, plan, 4);
  EXPECT_TRUE(c != a || dc.flipped_offsets != da.flipped_offsets);

  // A different seed likewise.
  auto d = clean;
  const CheckpointDamage dd = FaultInjector(8).corrupt_checkpoint(d, plan, 3);
  EXPECT_TRUE(d != a || dd.flipped_offsets != da.flipped_offsets);
}

TEST(CorruptCheckpoint, BitFlipsLandPastTheHeaderAndAreExactlyLedgered) {
  const auto clean = sample_file(256);
  CheckpointPlan plan;
  plan.bit_flips = 5;

  auto bytes = clean;
  const CheckpointDamage damage =
      FaultInjector(11).corrupt_checkpoint(bytes, plan, 0);
  ASSERT_EQ(damage.flipped_offsets.size(), 5u);
  EXPECT_EQ(bytes.size(), clean.size());
  EXPECT_FALSE(damage.header_corrupted);
  EXPECT_FALSE(damage.torn);
  EXPECT_EQ(damage.bytes_removed, 0u);
  for (const std::uint64_t off : damage.flipped_offsets) {
    EXPECT_GE(off, kHeaderBytes);
    EXPECT_LT(off, bytes.size());
  }
  // Every changed byte is at a ledgered offset (flips may collide, so the
  // total changed-bit count is at most the plan's).
  EXPECT_LE(bit_difference(clean, bytes), 5u);
  EXPECT_GE(bit_difference(clean, bytes), 1u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != clean[i]) {
      EXPECT_NE(std::find(damage.flipped_offsets.begin(),
                          damage.flipped_offsets.end(), i),
                damage.flipped_offsets.end())
          << "unledgered damage at offset " << i;
    }
  }
}

TEST(CorruptCheckpoint, HeaderFlipStaysInsideTheHeader) {
  const auto clean = sample_file(64);
  CheckpointPlan plan;
  plan.corrupt_header = true;

  auto bytes = clean;
  const CheckpointDamage damage =
      FaultInjector(3).corrupt_checkpoint(bytes, plan, 1);
  EXPECT_TRUE(damage.header_corrupted);
  EXPECT_EQ(bit_difference(clean, bytes), 1u);
  for (std::size_t i = kHeaderBytes; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], clean[i]);
  }
}

TEST(CorruptCheckpoint, TruncateTailReportsExactBytesRemoved) {
  const auto clean = sample_file(300);
  CheckpointPlan plan;
  plan.truncate_tail = true;

  auto bytes = clean;
  const CheckpointDamage damage =
      FaultInjector(5).corrupt_checkpoint(bytes, plan, 2);
  EXPECT_GT(damage.bytes_removed, 0u);
  EXPECT_EQ(bytes.size(), clean.size() - damage.bytes_removed);
  EXPECT_GE(bytes.size(), kHeaderBytes);
  // The surviving prefix is untouched.
  for (std::size_t i = 0; i < bytes.size(); ++i) EXPECT_EQ(bytes[i], clean[i]);
}

TEST(CorruptCheckpoint, TornPrefixLeavesLessThanAHeader) {
  const auto clean = sample_file(128);
  CheckpointPlan plan;
  plan.torn_prefix = true;
  plan.bit_flips = 9;  // ignored: nothing is left to flip after the tear

  auto bytes = clean;
  const CheckpointDamage damage =
      FaultInjector(9).corrupt_checkpoint(bytes, plan, 0);
  EXPECT_TRUE(damage.torn);
  EXPECT_TRUE(damage.any());
  EXPECT_LT(bytes.size(), kHeaderBytes);
  EXPECT_EQ(damage.bytes_removed, clean.size() - bytes.size());
  EXPECT_TRUE(damage.flipped_offsets.empty());
}

TEST(CorruptCheckpoint, TinyFilesAreAlreadyTorn) {
  CheckpointPlan plan;
  plan.bit_flips = 3;
  plan.corrupt_header = true;
  plan.truncate_tail = true;

  auto bytes = sample_file(kHeaderBytes);  // <= header: untouched
  const auto copy = bytes;
  const CheckpointDamage damage =
      FaultInjector(1).corrupt_checkpoint(bytes, plan, 0);
  EXPECT_EQ(bytes, copy);
  EXPECT_FALSE(damage.any());
}

TEST(CorruptCheckpoint, EmptyPlanIsIdentity) {
  auto bytes = sample_file(200);
  const auto copy = bytes;
  const CheckpointDamage damage =
      FaultInjector(42).corrupt_checkpoint(bytes, CheckpointPlan{}, 0);
  EXPECT_EQ(bytes, copy);
  EXPECT_FALSE(damage.any());
}

TEST(KillSwitch, FiresAtTheArmedOccurrenceExactlyOnce) {
  KillSwitch kill(3, 2);  // second occurrence of step 3
  EXPECT_NO_THROW(kill.poll(3));
  EXPECT_NO_THROW(kill.poll(1));
  EXPECT_FALSE(kill.fired());
  EXPECT_THROW(kill.poll(3), InjectedCrash);
  EXPECT_TRUE(kill.fired());
  // Fires at most once: the harness resumes polling after recovery.
  EXPECT_NO_THROW(kill.poll(3));
  EXPECT_EQ(kill.count(3), 3u);
  EXPECT_EQ(kill.count(1), 1u);
  EXPECT_EQ(kill.count(99), 0u);
}

TEST(KillSwitch, OccurrenceZeroIsDisarmed) {
  KillSwitch kill(1, 0);
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(kill.poll(1));
  EXPECT_FALSE(kill.fired());
  EXPECT_EQ(kill.count(1), 10u);
}

}  // namespace
}  // namespace dm::fault
