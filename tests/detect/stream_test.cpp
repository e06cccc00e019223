#include "detect/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "detect/pipeline.h"
#include "fault/fault.h"
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

}  // namespace
}  // namespace dm::detect
