#include "detect/incident.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>

#include "detect/pipeline.h"
#include "detect/stream.h"
#include "util/rng.h"

namespace dm::detect {
namespace {

using netflow::Direction;
using sim::AttackType;

const netflow::IPv4 kVip = netflow::IPv4::from_octets(100, 64, 0, 1);
const netflow::IPv4 kVip2 = netflow::IPv4::from_octets(100, 64, 0, 2);

MinuteDetection det(util::Minute minute, AttackType type = AttackType::kSynFlood,
                    netflow::IPv4 vip = kVip,
                    Direction dir = Direction::kInbound,
                    std::uint64_t packets = 100, std::uint32_t remotes = 10) {
  return MinuteDetection{vip, dir, type, minute, packets, remotes};
}

TEST(IncidentBuilder, SingleMinuteIncident) {
  const auto incidents = build_incidents({det(5)}, TimeoutTable::paper());
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].start, 5);
  EXPECT_EQ(incidents[0].end, 6);
  EXPECT_EQ(incidents[0].active_minutes, 1u);
  EXPECT_EQ(incidents[0].duration(), 1);
}

TEST(IncidentBuilder, ContiguousMinutesMerge) {
  const auto incidents = build_incidents({det(5), det(6), det(7)},
                                         TimeoutTable::paper());
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].duration(), 3);
  EXPECT_EQ(incidents[0].total_sampled_packets, 300u);
}

TEST(IncidentBuilder, GapBeyondTimeoutSplits) {
  // SYN flood timeout is 1 minute: a 2-minute gap splits.
  const auto incidents = build_incidents({det(5), det(8)}, TimeoutTable::paper());
  EXPECT_EQ(incidents.size(), 2u);
}

TEST(IncidentBuilder, GapWithinTimeoutMerges) {
  // Gap of exactly 1 silent minute (5 -> 7) merges for SYN (T=1).
  const auto incidents = build_incidents({det(5), det(7)}, TimeoutTable::paper());
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].duration(), 3);
  EXPECT_EQ(incidents[0].active_minutes, 2u);
}

TEST(IncidentBuilder, PerTypeTimeoutsDiffer) {
  // The same 40-minute gap merges for ICMP (T=120) but splits SYN (T=1).
  const auto icmp = build_incidents(
      {det(0, AttackType::kIcmpFlood), det(41, AttackType::kIcmpFlood)},
      TimeoutTable::paper());
  EXPECT_EQ(icmp.size(), 1u);
  const auto syn = build_incidents({det(0), det(41)}, TimeoutTable::paper());
  EXPECT_EQ(syn.size(), 2u);
}

TEST(IncidentBuilder, SeparatesVipsTypesDirections) {
  const auto incidents = build_incidents(
      {det(5), det(5, AttackType::kUdpFlood), det(5, AttackType::kSynFlood, kVip2),
       det(5, AttackType::kSynFlood, kVip, Direction::kOutbound)},
      TimeoutTable::paper());
  EXPECT_EQ(incidents.size(), 4u);
}

TEST(IncidentBuilder, UnsortedInputHandled) {
  const auto incidents =
      build_incidents({det(7), det(5), det(6)}, TimeoutTable::paper());
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].start, 5);
  EXPECT_EQ(incidents[0].end, 8);
}

TEST(IncidentBuilder, PeakAndRampUp) {
  std::vector<MinuteDetection> minutes{
      det(10, AttackType::kUdpFlood, kVip, Direction::kInbound, 50, 5),
      det(11, AttackType::kUdpFlood, kVip, Direction::kInbound, 120, 9),
      det(12, AttackType::kUdpFlood, kVip, Direction::kInbound, 400, 30),
      det(13, AttackType::kUdpFlood, kVip, Direction::kInbound, 380, 28),
  };
  const auto incidents = build_incidents(minutes, TimeoutTable::paper());
  ASSERT_EQ(incidents.size(), 1u);
  const auto& inc = incidents[0];
  EXPECT_EQ(inc.peak_sampled_ppm, 400u);
  EXPECT_EQ(inc.peak_unique_remotes, 30u);
  EXPECT_EQ(inc.total_sampled_packets, 950u);
  EXPECT_EQ(inc.ramp_up_minutes, 2);  // first minute at >= 90% of peak
  // 400 sampled ppm at 1:4096 = ~27.3 Kpps estimated.
  EXPECT_NEAR(inc.estimated_peak_pps(4096), 400.0 * 4096 / 60.0, 1e-6);
}

TEST(IncidentBuilder, EmptyInput) {
  EXPECT_TRUE(build_incidents({}, TimeoutTable::paper()).empty());
}

TEST(InactiveGaps, ComputesGapsPerSeries) {
  std::vector<MinuteDetection> minutes{
      det(1), det(2), det(10),                       // gap of 7 silent minutes
      det(1, AttackType::kSynFlood, kVip2), det(30, AttackType::kSynFlood, kVip2),
      det(5, AttackType::kUdpFlood),                 // other type: excluded
  };
  const auto gaps =
      inactive_gaps(minutes, AttackType::kSynFlood, Direction::kInbound);
  ASSERT_EQ(gaps.size(), 2u);
  // Sorted by (vip, minute): kVip gaps {7}, kVip2 gaps {28}.
  EXPECT_EQ(gaps[0], 7.0);
  EXPECT_EQ(gaps[1], 28.0);
}

TEST(InactiveGaps, ExtremeMinutesSaturate) {
  // Detections at the minute floor and ceiling are as far apart as minutes
  // get: the silent gap between them saturates instead of wrapping.
  const std::vector<MinuteDetection> detections = {
      det(std::numeric_limits<util::Minute>::min()),
      det(std::numeric_limits<util::Minute>::max())};
  const auto gaps =
      inactive_gaps(detections, AttackType::kSynFlood, Direction::kInbound);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0],
            static_cast<double>(std::numeric_limits<util::Minute>::max() - 1));
}

TEST(InactiveGaps, NoGapsForContiguous) {
  const std::vector<MinuteDetection> minutes{det(1), det(2), det(3)};
  const auto gaps =
      inactive_gaps(minutes, AttackType::kSynFlood, Direction::kInbound);
  EXPECT_TRUE(gaps.empty());
}

TEST(TimeoutTable, PaperValues) {
  const auto table = TimeoutTable::paper();
  EXPECT_EQ(table.of(AttackType::kSynFlood), 1);
  EXPECT_EQ(table.of(AttackType::kIcmpFlood), 120);
  EXPECT_EQ(table.of(AttackType::kSqlInjection), 30);
}

// Property: the number of incidents never exceeds the number of detections,
// and total packets are conserved.
class IncidentConservation : public ::testing::TestWithParam<int> {};

TEST_P(IncidentConservation, PacketsAndCountsConserved) {
  std::vector<MinuteDetection> minutes;
  std::set<std::pair<int, util::Minute>> seen;  // pipeline never duplicates
  unsigned state = static_cast<unsigned>(GetParam());
  std::uint64_t total_packets = 0;
  for (int i = 0; i < 300; ++i) {
    state = state * 1664525u + 1013904223u;
    const auto type = sim::kAllAttackTypes[state % sim::kAttackTypeCount];
    const auto minute = static_cast<util::Minute>(state / 7 % 2000);
    if (!seen.insert({static_cast<int>(type), minute}).second) continue;
    const std::uint64_t pkts = 1 + state % 100;
    total_packets += pkts;
    minutes.push_back(det(minute, type, kVip, Direction::kInbound, pkts, 1));
  }
  const auto incidents = build_incidents(minutes, TimeoutTable::paper());
  EXPECT_LE(incidents.size(), minutes.size());
  std::uint64_t incident_packets = 0;
  std::uint64_t active = 0;
  for (const auto& inc : incidents) {
    incident_packets += inc.total_sampled_packets;
    active += inc.active_minutes;
    EXPECT_LE(static_cast<util::Minute>(inc.active_minutes), inc.duration());
  }
  EXPECT_EQ(incident_packets, total_packets);
  EXPECT_EQ(active, minutes.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncidentConservation,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- reference: sort by key, split at gaps, finalize each group ----------
// Written apart from IncidentBuilder; the builder-backed build_incidents
// must match it in order and on every field.

auto reference_key(const MinuteDetection& d) {
  return std::make_tuple(d.vip.value(), static_cast<int>(d.direction),
                         static_cast<int>(d.type), d.minute);
}

AttackIncident reference_finalize(std::span<const MinuteDetection> minutes) {
  AttackIncident inc;
  const MinuteDetection& head = minutes.front();
  inc.vip = head.vip;
  inc.direction = head.direction;
  inc.type = head.type;
  inc.start = head.minute;
  inc.end = minutes.back().minute + 1;
  inc.active_minutes = static_cast<std::uint32_t>(minutes.size());
  for (const MinuteDetection& d : minutes) {
    inc.total_sampled_packets += d.sampled_packets;
    inc.peak_sampled_ppm = std::max(inc.peak_sampled_ppm, d.sampled_packets);
    inc.peak_unique_remotes = std::max(inc.peak_unique_remotes, d.unique_remotes);
  }
  const auto ninety = static_cast<std::uint64_t>(
      0.9 * static_cast<double>(inc.peak_sampled_ppm));
  for (const MinuteDetection& d : minutes) {
    if (d.sampled_packets >= ninety) {
      inc.ramp_up_minutes = d.minute - inc.start;
      break;
    }
  }
  return inc;
}

std::vector<AttackIncident> reference_build(std::vector<MinuteDetection> detections,
                                            const TimeoutTable& timeouts) {
  std::sort(detections.begin(), detections.end(),
            [](const MinuteDetection& a, const MinuteDetection& b) {
              return reference_key(a) < reference_key(b);
            });
  std::vector<AttackIncident> incidents;
  std::size_t group_start = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const bool last = i + 1 == detections.size();
    bool split = last;
    if (!last) {
      const MinuteDetection& cur = detections[i];
      const MinuteDetection& next = detections[i + 1];
      const bool same_series = cur.vip == next.vip &&
                               cur.direction == next.direction &&
                               cur.type == next.type;
      split = !same_series ||
              (next.minute - cur.minute - 1) > timeouts.of(cur.type);
    }
    if (split) {
      incidents.push_back(reference_finalize(
          std::span<const MinuteDetection>(detections)
              .subspan(group_start, i + 1 - group_start)));
      group_start = i + 1;
    }
  }
  return incidents;
}

auto all_fields(const AttackIncident& inc) {
  return std::make_tuple(inc.vip.value(), static_cast<int>(inc.direction),
                         static_cast<int>(inc.type), inc.start, inc.end,
                         inc.active_minutes, inc.total_sampled_packets,
                         inc.peak_sampled_ppm, inc.peak_unique_remotes,
                         inc.ramp_up_minutes);
}

TEST(IncidentBuilder, MatchesSortAndSplitReferenceOnRandomDetections) {
  // Bursty per-key minute sequences with gaps straddling every type's
  // timeout, and packet counts that wander near their running peak so the
  // 90 % ramp-up bar lands on early, late and repeated peaks.
  util::Rng rng(13);
  std::vector<MinuteDetection> detections;
  std::set<std::tuple<std::uint32_t, int, int, util::Minute>> used;
  while (detections.size() < 12'000) {
    const auto vip = netflow::IPv4(kVip.value() + static_cast<std::uint32_t>(rng.below(6)));
    const auto dir = rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
    const auto type = sim::kAllAttackTypes[rng.below(sim::kAttackTypeCount)];
    const util::Minute timeout = TimeoutTable::paper().of(type);
    auto minute = static_cast<util::Minute>(rng.below(5000));
    std::uint64_t level = 1 + rng.below(500);
    for (std::uint64_t n = 1 + rng.below(30); n > 0; --n) {
      if (used.insert({vip.value(), static_cast<int>(dir), static_cast<int>(type), minute})
              .second) {
        if (rng.chance(0.1)) {
          level = rng.below(3);
        } else {
          const std::uint64_t up = rng.below(level / 8 + 2);
          level = level + up - rng.below(level / 8 + 1);
        }
        detections.push_back(det(minute, type, vip, dir, level,
                                 static_cast<std::uint32_t>(rng.below(50))));
      }
      minute += 1 + static_cast<util::Minute>(rng.below(static_cast<std::uint64_t>(2 * timeout + 2)));
    }
  }
  std::vector<MinuteDetection> shuffled = detections;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }

  const auto expected = reference_build(detections, TimeoutTable::paper());
  const auto actual = build_incidents(shuffled, TimeoutTable::paper());
  ASSERT_EQ(actual.size(), expected.size());
  std::set<int> types;
  std::size_t late_ramps = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(all_fields(actual[i]), all_fields(expected[i])) << "incident " << i;
    types.insert(static_cast<int>(actual[i].type));
    if (actual[i].ramp_up_minutes > 0) ++late_ramps;
  }
  EXPECT_EQ(types.size(), sim::kAttackTypeCount);
  EXPECT_GT(late_ramps, 100u);
}

TEST(IncidentBuilder, RampUpIsFirstMinuteWithinNinetyPercentOfFinalPeak) {
  // 95 is within 10 % of the later peak 100 but was itself a running peak
  // when it arrived; the peak-setting minute (2) is not the ramp-up.
  IncidentBuilder builder(TimeoutTable::paper());
  std::vector<AttackIncident> closed;
  for (const auto& [minute, packets] :
       std::vector<std::pair<util::Minute, std::uint64_t>>{
           {0, 10}, {1, 95}, {2, 100}, {3, 40}}) {
    builder.feed(det(minute, AttackType::kUdpFlood, kVip, Direction::kInbound,
                     packets),
                 closed);
  }
  EXPECT_TRUE(closed.empty());
  builder.flush(closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].peak_sampled_ppm, 100u);
  EXPECT_EQ(closed[0].ramp_up_minutes, 1);
  EXPECT_TRUE(builder.live().empty());
}

TEST(IncidentBuilder, ExpiryErasesClosedIncidentsAndRunsOncePerMinute) {
  IncidentBuilder builder(TimeoutTable::paper());
  std::vector<AttackIncident> closed;
  for (std::uint32_t v = 0; v < 1000; ++v) {
    builder.feed(det(10, AttackType::kSynFlood, netflow::IPv4(kVip.value() + v)),
                 closed);
  }
  builder.feed(det(10, AttackType::kIcmpFlood), closed);
  ASSERT_EQ(builder.live().size(), 1001u);
  // SYN's timeout is one silent minute: minute 13 closes every SYN flood,
  // in key order, and erases them; the ICMP flood (timeout 120) stays.
  builder.expire(13, closed);
  ASSERT_EQ(closed.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(
      closed.begin(), closed.end(),
      [](const AttackIncident& a, const AttackIncident& b) {
        return a.vip < b.vip;
      }));
  EXPECT_EQ(builder.live().size(), 1u);
  // Expiry at the same or an earlier minute finds nothing new.
  builder.expire(13, closed);
  builder.expire(12, closed);
  EXPECT_EQ(closed.size(), 1000u);
  builder.expire(200, closed);
  EXPECT_EQ(closed.size(), 1001u);
  EXPECT_TRUE(builder.live().empty());
}

netflow::PrefixSet cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

/// An inbound TCP record to kVip with the given flags and packet count.
netflow::FlowRecord inbound(util::Minute minute, netflow::TcpFlags flags,
                            std::uint32_t packets) {
  netflow::FlowRecord r;
  r.minute = minute;
  r.src_ip = netflow::IPv4::from_octets(4, 0, 0, 1);
  r.dst_ip = kVip;
  r.src_port = 40'000;
  r.dst_port = 80;
  r.protocol = netflow::Protocol::kTcp;
  r.tcp_flags = flags;
  r.packets = packets;
  r.bytes = 40ull * packets;
  return r;
}

TEST(IncidentBuilder, ExtremeMinutesAreSeparateIncidents) {
  // NULL scans at the first and the last minute are as far apart as minutes
  // get: the silent gap between them saturates instead of wrapping negative,
  // so they are two incidents, and each ends one past its minute or at the
  // ceiling.
  constexpr util::Minute kFloor = std::numeric_limits<util::Minute>::min();
  constexpr util::Minute kCeiling = std::numeric_limits<util::Minute>::max();
  const auto windows = netflow::aggregate_windows(
      {inbound(kFloor, netflow::TcpFlags::kNone, 3),
       inbound(kCeiling, netflow::TcpFlags::kNone, 3)},
      cloud_space());
  const auto incidents = DetectionPipeline{}.run(windows).incidents;
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].type, AttackType::kPortScan);
  EXPECT_EQ(incidents[0].start, kFloor);
  EXPECT_EQ(incidents[0].end, kFloor + 1);
  EXPECT_EQ(incidents[1].type, AttackType::kPortScan);
  EXPECT_EQ(incidents[1].start, kCeiling);
  EXPECT_EQ(incidents[1].end, kCeiling);
}

TEST(IncidentBuilder, CeilingFloodMatchesBetweenBatchAndStream) {
  // A SYN flood in the last minute: its end saturates at the ceiling in
  // batch and in the stream monitor alike.
  constexpr util::Minute kCeiling = std::numeric_limits<util::Minute>::max();
  const std::vector<netflow::FlowRecord> feed = {
      inbound(kCeiling, netflow::TcpFlags::kSyn, 1000)};
  const auto batch =
      DetectionPipeline{}.run(netflow::aggregate_windows(feed, cloud_space()))
          .incidents;
  std::vector<AttackIncident> streamed;
  StreamMonitor monitor(
      cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      nullptr, [&](const AttackIncident& inc) { streamed.push_back(inc); });
  for (const auto& r : feed) monitor.ingest(r);
  monitor.advance_to(kCeiling);
  monitor.finish();
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(streamed.size(), 1u);
  const auto fields = [](const AttackIncident& inc) {
    return std::make_tuple(inc.vip.value(), static_cast<int>(inc.direction),
                           static_cast<int>(inc.type), inc.start, inc.end,
                           inc.active_minutes, inc.total_sampled_packets,
                           inc.peak_sampled_ppm, inc.peak_unique_remotes,
                           inc.ramp_up_minutes);
  };
  EXPECT_EQ(fields(streamed[0]), fields(batch[0]));
  EXPECT_EQ(batch[0].type, AttackType::kSynFlood);
  EXPECT_EQ(batch[0].start, kCeiling);
  EXPECT_EQ(batch[0].end, kCeiling);
  EXPECT_EQ(batch[0].duration(), 0);
}

}  // namespace
}  // namespace dm::detect
