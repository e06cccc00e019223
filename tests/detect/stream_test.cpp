#include "detect/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>

#include "detect/pipeline.h"
#include "fault/fault.h"
#include "netflow/frame.h"
#include "sim/trace_generator.h"

namespace dm::detect {
namespace {

using netflow::Direction;
using netflow::FlowRecord;
using netflow::IPv4;
using netflow::Protocol;
using netflow::TcpFlags;

const IPv4 kVip = IPv4::from_octets(100, 64, 0, 7);

netflow::PrefixSet cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

FlowRecord syn(util::Minute m, std::uint32_t src_offset) {
  FlowRecord r;
  r.minute = m;
  r.src_ip = IPv4(0x04000000u + src_offset);
  r.dst_ip = kVip;
  r.src_port = static_cast<std::uint16_t>(20'000 + src_offset % 40'000);
  r.dst_port = 80;
  r.protocol = Protocol::kTcp;
  r.tcp_flags = TcpFlags::kSyn;
  r.packets = 1;
  r.bytes = 40;
  return r;
}

TEST(StreamMonitor, DetectsFloodOnline) {
  std::vector<AttackIncident> incidents;
  std::vector<MinuteDetection> alerts;
  StreamMonitor monitor(
      cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      [&](const MinuteDetection& d) { alerts.push_back(d); },
      [&](const AttackIncident& inc) { incidents.push_back(inc); });

  for (util::Minute m = 100; m < 105; ++m) {
    for (std::uint32_t s = 0; s < 300; ++s) monitor.ingest(syn(m, s));
  }
  // The flood's last window is still open: no incident yet.
  EXPECT_TRUE(incidents.empty());
  monitor.finish();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].type, sim::AttackType::kSynFlood);
  EXPECT_EQ(incidents[0].start, 100);
  EXPECT_EQ(incidents[0].end, 105);
  EXPECT_EQ(incidents[0].active_minutes, 5u);
  EXPECT_EQ(alerts.size(), 5u);
  EXPECT_EQ(monitor.alerts(), 5u);
  EXPECT_EQ(monitor.incidents(), 1u);
}

TEST(StreamMonitor, IncidentEmittedWhenTimeoutExpires) {
  std::vector<AttackIncident> incidents;
  StreamMonitor monitor(cloud_space(), nullptr, DetectionConfig{},
                        TimeoutTable::paper(), nullptr,
                        [&](const AttackIncident& inc) {
                          incidents.push_back(inc);
                        });
  for (std::uint32_t s = 0; s < 300; ++s) monitor.ingest(syn(100, s));
  // Advance wall clock past the SYN timeout (1 min): incident closes
  // without any new traffic.
  monitor.advance_to(105);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].end, 101);
}

TEST(StreamMonitor, SplitsIncidentsAcrossGaps) {
  std::vector<AttackIncident> incidents;
  StreamMonitor monitor(cloud_space(), nullptr, DetectionConfig{},
                        TimeoutTable::paper(), nullptr,
                        [&](const AttackIncident& inc) {
                          incidents.push_back(inc);
                        });
  for (std::uint32_t s = 0; s < 300; ++s) monitor.ingest(syn(100, s));
  for (std::uint32_t s = 0; s < 300; ++s) monitor.ingest(syn(110, s));
  monitor.finish();
  EXPECT_EQ(incidents.size(), 2u);
}

TEST(StreamMonitor, LateRecordsDropped) {
  StreamMonitor monitor(cloud_space());
  monitor.ingest(syn(100, 1));
  monitor.ingest(syn(105, 2));  // commits minutes < 105
  monitor.ingest(syn(100, 3));  // late
  EXPECT_EQ(monitor.records_dropped(), 1u);
}

TEST(StreamMonitor, UnclassifiableRecordsDropped) {
  StreamMonitor monitor(cloud_space());
  FlowRecord r = syn(100, 1);
  r.dst_ip = IPv4::from_octets(4, 4, 4, 4);  // remote-to-remote
  monitor.ingest(r);
  EXPECT_EQ(monitor.records_dropped(), 1u);
}

/// Every AttackIncident field, in declaration order.
auto all_fields(const AttackIncident& inc) {
  return std::make_tuple(inc.vip.value(), static_cast<int>(inc.direction),
                         static_cast<int>(inc.type), inc.start, inc.end,
                         inc.active_minutes, inc.total_sampled_packets,
                         inc.peak_sampled_ppm, inc.peak_unique_remotes,
                         inc.ramp_up_minutes);
}

/// Runs `feed` through a StreamMonitor and the batch pipeline and expects
/// the same windows and the same incidents, compared on every field.
void expect_stream_matches_batch(const std::vector<FlowRecord>& feed,
                                 const netflow::PrefixSet& space,
                                 const netflow::PrefixSet* blacklist,
                                 StreamConfig stream = {}) {
  const auto windowed =
      netflow::aggregate_windows(feed, space, blacklist);
  auto batch = DetectionPipeline{}.run(windowed).incidents;

  std::vector<AttackIncident> streamed;
  StreamMonitor monitor(space, blacklist, DetectionConfig{},
                        TimeoutTable::paper(), nullptr,
                        [&](const AttackIncident& inc) {
                          streamed.push_back(inc);
                        },
                        stream);
  for (const auto& r : feed) monitor.ingest(r);
  monitor.finish();
  EXPECT_EQ(monitor.records_late(), 0u);
  EXPECT_EQ(monitor.windows_closed(), windowed.windows().size());

  EXPECT_EQ(streamed.size(), batch.size());
  const auto by_fields = [](const AttackIncident& a, const AttackIncident& b) {
    return all_fields(a) < all_fields(b);
  };
  std::sort(batch.begin(), batch.end(), by_fields);
  std::sort(streamed.begin(), streamed.end(), by_fields);
  for (std::size_t i = 0; i < std::min(streamed.size(), batch.size()); ++i) {
    EXPECT_EQ(all_fields(streamed[i]), all_fields(batch[i])) << "incident " << i;
  }
}

sim::ScenarioConfig simulated_config(unsigned thread_count) {
  auto config = sim::ScenarioConfig::smoke();
  config.vips.vip_count = 100;
  config.days = 1;
  config.seed = 777;
  config.thread_count = thread_count;
  return config;
}

/// A generated one-day scenario and its feed in time order, as a collector
/// delivers it.
struct SimulatedFeed {
  explicit SimulatedFeed(unsigned thread_count)
      : scenario(simulated_config(thread_count)),
        records(sim::generate_trace(scenario).records) {
    std::stable_sort(records.begin(), records.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.minute < b.minute;
                     });
  }
  sim::Scenario scenario;
  std::vector<FlowRecord> records;
};

TEST(StreamMonitor, MatchesBatchPipelineOnSimulatedTrace) {
  // The gold property: on an in-order feed, the streaming monitor finds the
  // same incidents as the offline pipeline, on every field.
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const SimulatedFeed feed(threads);
    expect_stream_matches_batch(feed.records,
                                feed.scenario.vips().cloud_space(),
                                &feed.scenario.tds().as_prefix_set());
  }
}

TEST(StreamMonitor, MatchesBatchPipelineOnReorderedFeed) {
  // Bounded disorder within the reorder lag changes nothing either.
  const SimulatedFeed feed(1);
  fault::RecordPlan plan;
  plan.reorder_window = 32;
  fault::RecordDamage damage;
  const auto reordered =
      fault::FaultInjector(11).degrade(feed.records, plan, &damage);
  EXPECT_GT(damage.displaced, 0u);
  StreamConfig stream;
  stream.reorder_lag = 2;
  expect_stream_matches_batch(reordered, feed.scenario.vips().cloud_space(),
                              &feed.scenario.tds().as_prefix_set(), stream);
}

TEST(StreamMonitor, RampUpMatchesBatchWhenPeakFollowsNearPeakMinute) {
  // 950 sampled SYN packets/min is within 10 % of the 1000 that follows:
  // the ramp-up is the 950 minute, not the minute that set the peak.
  std::vector<FlowRecord> feed;
  const std::uint32_t rates[] = {300, 950, 1000, 400};
  for (util::Minute m = 0; m < 4; ++m) {
    for (std::uint32_t s = 0; s < 10; ++s) {
      FlowRecord r = syn(100 + m, s);
      r.packets = rates[m] / 10;
      feed.push_back(r);
    }
  }
  std::vector<AttackIncident> streamed;
  StreamMonitor monitor(cloud_space(), nullptr, DetectionConfig{},
                        TimeoutTable::paper(), nullptr,
                        [&](const AttackIncident& inc) {
                          streamed.push_back(inc);
                        });
  for (const auto& r : feed) monitor.ingest(r);
  monitor.finish();
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(streamed[0].peak_sampled_ppm, 1000u);
  EXPECT_EQ(streamed[0].ramp_up_minutes, 1);
  expect_stream_matches_batch(feed, cloud_space(), nullptr);
}

TEST(StreamMonitor, SplitCountersPartitionDrops) {
  StreamMonitor monitor(cloud_space());
  monitor.ingest(syn(100, 1));
  monitor.ingest(syn(105, 2));  // commits minutes < 105
  monitor.ingest(syn(100, 3));  // late
  FlowRecord remote = syn(106, 4);
  remote.dst_ip = IPv4::from_octets(4, 4, 4, 4);  // remote-to-remote
  monitor.ingest(remote);
  FlowRecord empty = syn(106, 5);
  empty.packets = 0;  // structurally malformed
  monitor.ingest(empty);

  EXPECT_EQ(monitor.records_ingested(), 5u);
  EXPECT_EQ(monitor.records_late(), 1u);
  EXPECT_EQ(monitor.records_unclassifiable(), 1u);
  EXPECT_EQ(monitor.records_quarantined(), 1u);
  EXPECT_EQ(monitor.records_duplicate(), 0u);
  // Aggregate covers every refusal cause: late + unclassifiable +
  // quarantined (+ duplicate, zero here).
  EXPECT_EQ(monitor.records_dropped(), 3u);
}

TEST(StreamMonitor, ReorderLagAcceptsBoundedDisorder) {
  StreamConfig stream;
  stream.reorder_lag = 2;
  StreamMonitor monitor(cloud_space(), nullptr, DetectionConfig{},
                        TimeoutTable::paper(), nullptr, nullptr, stream);
  monitor.ingest(syn(105, 1));  // watermark moves to 102
  monitor.ingest(syn(104, 2));  // within the lag: accepted
  monitor.ingest(syn(103, 3));  // still within: accepted
  monitor.ingest(syn(102, 4));  // at the watermark: late
  EXPECT_EQ(monitor.records_late(), 1u);
  monitor.finish();
  EXPECT_EQ(monitor.windows_closed(), 3u);
}

TEST(StreamMonitor, NegativeReorderLagIsRejected) {
  // A lag of -1 would commit each minute on its first record, so the rest
  // of that minute would count as late.
  StreamConfig stream;
  stream.reorder_lag = -1;
  EXPECT_THROW(StreamMonitor(cloud_space(), nullptr, DetectionConfig{},
                             TimeoutTable::paper(), nullptr, nullptr, stream),
               ConfigError);
  stream.reorder_lag = 0;
  EXPECT_NO_THROW(StreamMonitor(cloud_space(), nullptr, DetectionConfig{},
                                TimeoutTable::paper(), nullptr, nullptr,
                                stream));
}

TEST(StreamMonitor, ReorderLagAtTheMinuteFloor) {
  // Minutes next to INT64_MIN decode; with a lag they are merely late.
  StreamConfig stream;
  stream.reorder_lag = 2;
  StreamMonitor monitor(cloud_space(), nullptr, DetectionConfig{},
                        TimeoutTable::paper(), nullptr, nullptr, stream);
  monitor.ingest(syn(INT64_MIN + 1, 1));
  monitor.ingest(syn(INT64_MIN, 2));
  monitor.ingest(syn(5, 3));
  monitor.finish();
  EXPECT_EQ(monitor.records_late(), 2u);
  EXPECT_EQ(monitor.windows_closed(), 1u);
}

TEST(StreamMonitor, ReorderedFloodMatchesInOrderResult) {
  // A flood fed in bounded disorder under a sufficient lag must produce
  // the same incident as the in-order feed.
  std::vector<FlowRecord> feed;
  for (util::Minute m = 100; m < 105; ++m) {
    for (std::uint32_t s = 0; s < 300; ++s) feed.push_back(syn(m, s));
  }
  std::vector<FlowRecord> disordered = feed;
  // Swap records across adjacent minutes throughout the feed.
  for (std::size_t i = 150; i + 300 < disordered.size(); i += 300) {
    std::swap(disordered[i], disordered[i + 299]);
  }

  const auto run = [](const std::vector<FlowRecord>& records,
                      util::Minute lag) {
    StreamConfig stream;
    stream.reorder_lag = lag;
    std::vector<AttackIncident> incidents;
    StreamMonitor monitor(
        cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
        nullptr,
        [&incidents](const AttackIncident& inc) { incidents.push_back(inc); },
        stream);
    for (const auto& r : records) monitor.ingest(r);
    monitor.finish();
    EXPECT_EQ(monitor.records_late(), 0u);
    return incidents;
  };

  const auto in_order = run(feed, 1);
  const auto reordered = run(disordered, 1);
  ASSERT_EQ(in_order.size(), 1u);
  ASSERT_EQ(reordered.size(), 1u);
  EXPECT_EQ(reordered[0].start, in_order[0].start);
  EXPECT_EQ(reordered[0].end, in_order[0].end);
  EXPECT_EQ(reordered[0].total_sampled_packets,
            in_order[0].total_sampled_packets);
}

TEST(StreamMonitor, DuplicateSuppressionIsOptIn) {
  // Off (default): the repeat contributes to the window again.
  StreamMonitor plain(cloud_space());
  plain.ingest(syn(100, 1));
  plain.ingest(syn(100, 1));
  EXPECT_EQ(plain.records_duplicate(), 0u);

  StreamConfig stream;
  stream.suppress_duplicates = true;
  StreamMonitor dedup(cloud_space(), nullptr, DetectionConfig{},
                      TimeoutTable::paper(), nullptr, nullptr, stream);
  dedup.ingest(syn(100, 1));
  dedup.ingest(syn(100, 1));  // byte-identical re-emit
  dedup.ingest(syn(100, 2));  // distinct record passes
  EXPECT_EQ(dedup.records_duplicate(), 1u);
  EXPECT_EQ(dedup.records_ingested(), 3u);
}

TEST(StreamMonitor, DeclaredOutageDoesNotCollapseBaseline) {
  // Steady 200 SYN-packets/min, a 60-minute collector outage, then the same
  // steady rate. Undeclared, the gap decays the EWMA to ~0 and the resumed
  // steady rate alarms as a flood; declared via note_outage it must not.
  const auto steady = [](StreamMonitor& monitor, util::Minute from,
                         util::Minute to) {
    for (util::Minute m = from; m < to; ++m) {
      FlowRecord r = syn(m, 1);
      r.packets = 200;
      monitor.ingest(r);
    }
  };

  std::uint64_t alerts_without = 0;
  {
    StreamMonitor monitor(cloud_space());
    steady(monitor, 0, 21);
    steady(monitor, 81, 101);
    monitor.finish();
    alerts_without = monitor.alerts();
  }
  EXPECT_GT(alerts_without, 0u) << "undeclared outage must look like a flood "
                                   "(otherwise this test checks nothing)";

  std::uint64_t alerts_with = 0;
  {
    StreamMonitor monitor(cloud_space());
    steady(monitor, 0, 21);
    monitor.note_outage(21, 81);
    steady(monitor, 81, 101);
    monitor.finish();
    alerts_with = monitor.alerts();
  }
  EXPECT_EQ(alerts_with, 0u)
      << "declared outage minutes must not decay the detector baseline";
}

TEST(StreamMonitor, OutageOnlyCoversDeclaredMinutes) {
  // A declared outage must not mask a genuine post-outage flood: the spike
  // is far above the preserved baseline and still alarms.
  StreamMonitor monitor(cloud_space());
  for (util::Minute m = 0; m < 21; ++m) {
    FlowRecord r = syn(m, 1);
    r.packets = 50;
    monitor.ingest(r);
  }
  monitor.note_outage(21, 51);
  for (std::uint32_t s = 0; s < 300; ++s) monitor.ingest(syn(51, s));
  monitor.finish();
  EXPECT_GT(monitor.alerts(), 0u);
}

TEST(StreamMonitor, AdvanceToTheMinuteFloorIsDefined) {
  // The commit watermark is one below the advanced-to minute; at the floor
  // that subtraction saturates instead of wrapping, so nothing commits and
  // later records are still on time.
  StreamMonitor monitor(cloud_space());
  monitor.advance_to(std::numeric_limits<util::Minute>::min());
  monitor.ingest(syn(0, 1));
  monitor.advance_to(std::numeric_limits<util::Minute>::min());
  monitor.finish();
  EXPECT_EQ(monitor.records_late(), 0u);
  EXPECT_EQ(monitor.windows_closed(), 1u);
}

/// A SYN flood of `sources` distinct remotes on one (vip, direction) series
/// in minute `m`: inbound from the remotes to `vip`, or outbound from `vip`.
std::vector<FlowRecord> flood(IPv4 vip, Direction direction, util::Minute m,
                              std::uint32_t sources) {
  std::vector<FlowRecord> records;
  for (std::uint32_t s = 0; s < sources; ++s) {
    FlowRecord r = syn(m, s);
    r.dst_ip = vip;
    if (direction == Direction::kOutbound) std::swap(r.src_ip, r.dst_ip);
    records.push_back(r);
  }
  return records;
}

TEST(StreamMonitor, WindowsCloseInKeyOrder) {
  // Six series reach minute 100 in descending (vip, direction) order, each
  // with a flood; their windows close in ascending order, so the alerts do.
  std::vector<std::pair<std::uint32_t, Direction>> alerted;
  StreamMonitor monitor(
      cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      [&](const MinuteDetection& d) {
        alerted.emplace_back(d.vip.value(), d.direction);
      });
  std::vector<std::pair<std::uint32_t, Direction>> fed;
  for (int v = 2; v >= 0; --v) {
    const IPv4 vip =
        IPv4::from_octets(100, 64, 0, static_cast<std::uint8_t>(9 + v));
    for (const Direction dir : {Direction::kOutbound, Direction::kInbound}) {
      fed.emplace_back(vip.value(), dir);
      for (const FlowRecord& r : flood(vip, dir, 100, 300)) monitor.ingest(r);
    }
  }
  monitor.finish();
  std::sort(fed.begin(), fed.end());
  EXPECT_EQ(alerted, fed);
}

TEST(StreamMonitor, RecycledWindowsStartEmpty) {
  // A window far larger than any table a closed minute keeps closes first.
  // Later minutes reuse the closed minutes' storage; a monitor restored from
  // a checkpoint taken right after that close has none to reuse, so every
  // counter, alert, incident and gauge of the two must agree from there on,
  // and the floods must report their exact remote counts. Minute 101's
  // series outnumber the slots a fresh minute starts with, so windows land
  // after its storage grows, and the lag keeps two minutes open at a time.
  const IPv4 big = IPv4::from_octets(100, 64, 0, 200);
  StreamConfig stream;
  stream.reorder_lag = 1;
  std::vector<MinuteDetection> recycled_alerts;
  std::vector<AttackIncident> recycled_incidents;
  StreamMonitor recycled(
      cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      [&](const MinuteDetection& d) { recycled_alerts.push_back(d); },
      [&](const AttackIncident& inc) { recycled_incidents.push_back(inc); },
      stream);
  for (const FlowRecord& r : flood(big, Direction::kInbound, 100, 20'000)) {
    recycled.ingest(r);
  }
  recycled.advance_to(101);
  ASSERT_EQ(recycled.windows_closed(), 1u);

  std::ostringstream snapshot(std::ios::binary);
  recycled.checkpoint(snapshot);
  std::vector<MinuteDetection> fresh_alerts;
  std::vector<AttackIncident> fresh_incidents;
  StreamMonitor fresh(
      cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      [&](const MinuteDetection& d) { fresh_alerts.push_back(d); },
      [&](const AttackIncident& inc) { fresh_incidents.push_back(inc); },
      stream);
  std::istringstream in(snapshot.str(), std::ios::binary);
  fresh.restore(in);
  const std::size_t alerts_before = recycled_alerts.size();
  fresh_alerts = recycled_alerts;

  // Minutes 101..104: 40 fresh VIPs per minute, each with a 300-remote
  // flood in both directions whose remotes repeat the big window's. Each
  // series' records come two at a time, and minutes 101/102 and 103/104
  // interleave record by record.
  std::array<std::vector<FlowRecord>, 4> minutes;
  for (util::Minute m = 101; m <= 104; ++m) {
    std::vector<std::vector<FlowRecord>> series;
    for (std::uint8_t v = 0; v < 40; ++v) {
      const IPv4 vip =
          IPv4::from_octets(100, 64, static_cast<std::uint8_t>(m - 100), v);
      series.push_back(flood(vip, Direction::kInbound, m, 300));
      series.push_back(flood(vip, Direction::kOutbound, m, 300));
    }
    for (std::size_t i = 0; i < 300; i += 2) {
      for (const auto& s : series) {
        minutes[static_cast<std::size_t>(m - 101)].push_back(s[i]);
        minutes[static_cast<std::size_t>(m - 101)].push_back(s[i + 1]);
      }
    }
  }
  std::vector<FlowRecord> feed;
  for (std::size_t pair = 0; pair < 4; pair += 2) {
    for (std::size_t i = 0; i < minutes[pair].size(); ++i) {
      feed.push_back(minutes[pair][i]);
      feed.push_back(minutes[pair + 1][i]);
    }
  }
  for (std::size_t i = 0; i < feed.size(); ++i) {
    recycled.ingest(feed[i]);
    fresh.ingest(feed[i]);
    ASSERT_EQ(recycled.approx_state_bytes(), fresh.approx_state_bytes())
        << "record " << i;
  }
  std::ostringstream recycled_bytes(std::ios::binary);
  std::ostringstream fresh_bytes(std::ios::binary);
  recycled.checkpoint(recycled_bytes);
  fresh.checkpoint(fresh_bytes);
  EXPECT_EQ(recycled_bytes.str(), fresh_bytes.str());
  recycled.finish();
  fresh.finish();
  EXPECT_EQ(recycled.windows_closed(), fresh.windows_closed());
  EXPECT_EQ(recycled.windows_closed(), 1u + 4 * 80);
  EXPECT_EQ(recycled.series_count(), fresh.series_count());
  EXPECT_EQ(recycled.approx_state_bytes(), fresh.approx_state_bytes());

  ASSERT_EQ(recycled_alerts.size(), fresh_alerts.size());
  ASSERT_EQ(recycled_alerts.size(), alerts_before + 4 * 80);
  for (std::size_t i = alerts_before; i < recycled_alerts.size(); ++i) {
    const MinuteDetection& a = recycled_alerts[i];
    const MinuteDetection& b = fresh_alerts[i];
    EXPECT_EQ(std::tie(a.vip, a.direction, a.type, a.minute, a.sampled_packets,
                       a.unique_remotes),
              std::tie(b.vip, b.direction, b.type, b.minute, b.sampled_packets,
                       b.unique_remotes))
        << "alert " << i;
    EXPECT_EQ(a.type, sim::AttackType::kSynFlood);
    EXPECT_EQ(a.sampled_packets, 300u) << "alert " << i;
    EXPECT_EQ(a.unique_remotes, 300u) << "alert " << i;
  }
  ASSERT_EQ(recycled_incidents.size(), fresh_incidents.size());
  for (std::size_t i = 0; i < recycled_incidents.size(); ++i) {
    EXPECT_EQ(all_fields(recycled_incidents[i]), all_fields(fresh_incidents[i]))
        << "incident " << i;
  }
}

/// Little-endian bytes of a sequence of fields, for a pinned CRC-32.
struct FieldBytes {
  std::vector<std::uint8_t> bytes;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
};

std::uint32_t crc_of(std::span<const std::uint8_t> bytes) {
  return netflow::crc32(bytes);
}

std::uint32_t crc_of(const std::string& bytes) {
  return crc_of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

TEST(StreamMonitor, OutputAndCheckpointsMatchPinnedDigests) {
  // A degraded smoke feed (displaced by up to 32 positions, 2 % re-emitted)
  // through a lag-0 monitor that suppresses duplicates and a lag-2 monitor
  // with a declared outage. The alert and incident sequences, the
  // checkpoint bytes at four points (three mid-feed, one after finish) and
  // the state gauges there are pinned to constants captured before the
  // monitor's state was flattened; every checkpoint also round-trips.
  const sim::Scenario scenario(sim::ScenarioConfig::smoke());
  std::vector<FlowRecord> ordered = sim::generate_trace(scenario).records;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  fault::RecordPlan plan;
  plan.reorder_window = 32;
  plan.duplicate_prob = 0.02;
  fault::RecordDamage damage;
  const auto degraded =
      fault::FaultInjector(11).degrade(ordered, plan, &damage);
  ASSERT_GT(damage.displaced, 0u);
  ASSERT_GT(damage.duplicated, 0u);

  struct Case {
    const char* name;
    util::Minute lag;
    bool suppress_duplicates;
    std::pair<util::Minute, util::Minute> outage;  ///< empty when from == to
    std::uint32_t alerts_crc;
    std::uint32_t incidents_crc;
    std::array<std::uint32_t, 4> checkpoint_crcs;
    std::uint64_t state_bytes_sum;
    std::uint64_t series_sum;
  };
  const Case cases[] = {
      {"lag 0, duplicates suppressed", 0, true, {0, 0},
       571461249u, 2186455108u,
       {2925029324u, 2961217218u, 187640822u, 2177088813u}, 635868u, 1149u},
      {"lag 2, declared outage", 2, false, {1200, 1260},
       1716648819u, 426790447u,
       {3953552201u, 2300041698u, 384050586u, 515144057u}, 690792u, 1149u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StreamConfig stream;
    stream.reorder_lag = c.lag;
    stream.suppress_duplicates = c.suppress_duplicates;
    FieldBytes alerts;
    FieldBytes incidents;
    StreamMonitor monitor(
        scenario.vips().cloud_space(), &scenario.tds().as_prefix_set(),
        DetectionConfig{}, TimeoutTable::paper(),
        [&](const MinuteDetection& d) {
          for (const std::uint64_t v :
               {std::uint64_t{d.vip.value()}, std::uint64_t(d.direction),
                std::uint64_t(d.type), std::uint64_t(d.minute),
                d.sampled_packets, std::uint64_t{d.unique_remotes}}) {
            alerts.add(v);
          }
        },
        [&](const AttackIncident& inc) {
          const auto fields = all_fields(inc);
          std::apply([&](auto... v) { (incidents.add(std::uint64_t(v)), ...); },
                     fields);
        },
        stream);
    if (c.outage.first < c.outage.second) {
      monitor.note_outage(c.outage.first, c.outage.second);
    }

    std::array<std::uint32_t, 4> checkpoint_crcs{};
    std::uint64_t state_bytes_sum = 0;
    std::uint64_t series_sum = 0;
    std::size_t point = 0;
    const auto capture = [&] {
      std::ostringstream out(std::ios::binary);
      monitor.checkpoint(out);
      checkpoint_crcs[point++] = crc_of(out.str());
      state_bytes_sum += monitor.approx_state_bytes();
      series_sum += monitor.series_count();

      StreamMonitor restored(scenario.vips().cloud_space(),
                             &scenario.tds().as_prefix_set(), DetectionConfig{},
                             TimeoutTable::paper(), nullptr, nullptr, stream);
      std::istringstream in(out.str(), std::ios::binary);
      restored.restore(in);
      std::ostringstream again(std::ios::binary);
      restored.checkpoint(again);
      EXPECT_EQ(again.str(), out.str()) << "round trip at point " << point;
      EXPECT_EQ(restored.approx_state_bytes(), monitor.approx_state_bytes());
      EXPECT_EQ(restored.series_count(), monitor.series_count());
    };
    for (std::size_t i = 0; i < degraded.size(); ++i) {
      const auto& r = degraded[i];
      if (c.outage.first <= r.minute && r.minute < c.outage.second) continue;
      monitor.ingest(r);
      if (i + 1 == degraded.size() / 4 || i + 1 == degraded.size() / 2 ||
          i + 1 == 3 * degraded.size() / 4) {
        capture();
      }
    }
    monitor.finish();
    capture();
    ASSERT_EQ(point, 4u);

    EXPECT_GT(monitor.alerts(), 0u);
    EXPECT_GT(monitor.incidents(), 0u);
    EXPECT_EQ(crc_of(alerts.bytes), c.alerts_crc);
    EXPECT_EQ(crc_of(incidents.bytes), c.incidents_crc);
    EXPECT_EQ(checkpoint_crcs, c.checkpoint_crcs);
    EXPECT_EQ(state_bytes_sum, c.state_bytes_sum);
    EXPECT_EQ(series_sum, c.series_sum);
  }
}

}  // namespace
}  // namespace dm::detect
