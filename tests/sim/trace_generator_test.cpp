#include "sim/trace_generator.h"

#include <gtest/gtest.h>

#include "netflow/window_aggregator.h"

namespace dm::sim {
namespace {

class TraceGeneratorTest : public ::testing::Test {
 protected:
  static ScenarioConfig config() {
    ScenarioConfig c = ScenarioConfig::smoke();
    c.vips.vip_count = 100;
    c.days = 1;
    c.seed = 2718;
    return c;
  }
  static const Scenario& scenario() {
    static const Scenario s{config()};
    return s;
  }
  static const TraceResult& result() {
    static const TraceResult r = generate_trace(scenario());
    return r;
  }
};

TEST_F(TraceGeneratorTest, ProducesRecordsAndTruth) {
  EXPECT_GT(result().records.size(), 1'000u);
  EXPECT_GT(result().truth.episodes.size(), 10u);
}

TEST_F(TraceGeneratorTest, AllRecordsWithinTrace) {
  const util::Minute end = config().total_minutes();
  for (const auto& r : result().records) {
    EXPECT_GE(r.minute, 0);
    EXPECT_LT(r.minute, end);
    EXPECT_GE(r.packets, 1u);
  }
}

TEST_F(TraceGeneratorTest, EveryRecordHasExactlyOneCloudEndpoint) {
  const auto& space = scenario().vips().cloud_space();
  for (const auto& r : result().records) {
    EXPECT_NE(space.contains(r.src_ip), space.contains(r.dst_ip))
        << netflow::to_string(r);
  }
}

TEST_F(TraceGeneratorTest, AggregationLosesNothing) {
  auto records = result().records;
  const auto trace = netflow::aggregate_windows(
      std::move(records), scenario().vips().cloud_space(),
      &scenario().tds().as_prefix_set());
  EXPECT_EQ(trace.unclassified_records(), 0u);
  EXPECT_EQ(trace.records().size(), result().records.size());
  std::uint64_t window_packets = 0;
  std::uint64_t record_packets = 0;
  for (const auto& w : trace.windows()) window_packets += w.packets;
  for (const auto& r : result().records) record_packets += r.packets;
  EXPECT_EQ(window_packets, record_packets);
}

TEST_F(TraceGeneratorTest, DeterministicForSeed) {
  const TraceResult again = generate_trace(scenario());
  ASSERT_EQ(again.records.size(), result().records.size());
  EXPECT_EQ(again.records, result().records);
  EXPECT_EQ(again.truth.episodes.size(), result().truth.episodes.size());
}

TEST_F(TraceGeneratorTest, SeedChangesTrace) {
  ScenarioConfig other = config();
  other.seed = 999;
  const Scenario other_scenario(other);
  const TraceResult other_result = generate_trace(other_scenario);
  EXPECT_NE(other_result.records.size(), result().records.size());
}

TEST_F(TraceGeneratorTest, AttackEpisodesLeaveTraffic) {
  // Loud episodes must contribute records overlapping their window.
  auto records = result().records;
  const auto trace = netflow::aggregate_windows(
      std::move(records), scenario().vips().cloud_space(),
      &scenario().tds().as_prefix_set());
  std::size_t loud = 0;
  std::size_t with_traffic = 0;
  for (const auto& e : result().truth.episodes) {
    if (e.peak_true_pps < 50'000.0) continue;
    ++loud;
    const auto series = trace.series(e.vip, e.direction);
    for (const auto& w : series) {
      if (w.minute >= e.start && w.minute < e.end) {
        ++with_traffic;
        break;
      }
    }
  }
  if (loud > 0) {
    EXPECT_EQ(with_traffic, loud);
  }
}

TEST(ScenarioConfigTest, PresetsAreSane) {
  const auto smoke = ScenarioConfig::smoke();
  EXPECT_GT(smoke.vips.vip_count, 0u);
  EXPECT_GT(smoke.days, 0);
  const auto paper = ScenarioConfig::paper_scale();
  EXPECT_GT(paper.vips.vip_count, smoke.vips.vip_count);
  EXPECT_EQ(paper.sampling, 4096u);
  EXPECT_EQ(paper.total_minutes(), paper.days * 1440);
}

TEST(AttackParamsTest, TablesCoverEveryTypeAndDirection) {
  for (AttackType t : kAllAttackTypes) {
    for (netflow::Direction d :
         {netflow::Direction::kInbound, netflow::Direction::kOutbound}) {
      const AttackParams& p = default_attack_params(t, d);
      EXPECT_GT(p.session_share, 0.0) << to_string(t);
      EXPECT_GT(p.peak_pps_median, 0.0);
      EXPECT_GE(p.peak_pps_cap, p.peak_pps_median);
      EXPECT_GT(p.duration_median, 0.0);
      EXPECT_GE(p.duration_cap, p.duration_median);
      EXPECT_GT(p.host_count_cap, 0.0);
      EXPECT_GE(p.p_single, 0.0);
      EXPECT_LE(p.p_single, 1.0);
    }
  }
}

TEST(AttackParamsTest, PaperRatiosEncoded) {
  using netflow::Direction;
  // §3.1 outbound/inbound ratios. Outbound SYN dominance is delivered by
  // the scripted serial attacker and multi-vector companions rather than
  // the generic session share, so the table ratio is asserted on UDP.
  const double udp_ratio =
      default_attack_params(AttackType::kUdpFlood, Direction::kOutbound).session_share /
      default_attack_params(AttackType::kUdpFlood, Direction::kInbound).session_share;
  EXPECT_GT(udp_ratio, 1.2);
  const double bf_ratio =
      default_attack_params(AttackType::kBruteForce, Direction::kOutbound).session_share /
      default_attack_params(AttackType::kBruteForce, Direction::kInbound).session_share;
  EXPECT_GT(bf_ratio, 2.0);
  // Port scans are mostly inbound.
  EXPECT_GT(default_attack_params(AttackType::kPortScan, Direction::kInbound)
                .session_share,
            default_attack_params(AttackType::kPortScan, Direction::kOutbound)
                .session_share);
  // SYN floods are spoofed ~67% inbound, never outbound.
  EXPECT_NEAR(default_attack_params(AttackType::kSynFlood, Direction::kInbound)
                  .spoofed_fraction,
              0.671, 1e-9);
  EXPECT_DOUBLE_EQ(
      default_attack_params(AttackType::kSynFlood, Direction::kOutbound)
          .spoofed_fraction,
      0.0);
}

}  // namespace
}  // namespace dm::sim
