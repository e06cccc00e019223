// Checkpoint/restore acceptance: a monitor that ingests half a feed,
// checkpoints, restores into a fresh monitor, and ingests the rest must be
// byte-identical (checkpoint bytes and emitted incidents) to one that ran
// uninterrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "detect/stream.h"
#include "fault/fault.h"
#include "netflow/frame.h"
#include "sim/trace_generator.h"
#include "util/error.h"

namespace dm::detect {
namespace {

using netflow::FlowRecord;

netflow::PrefixSet sim_cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

std::vector<FlowRecord> scenario_feed(unsigned thread_count) {
  sim::ScenarioConfig config = sim::ScenarioConfig::smoke();
  config.thread_count = thread_count;
  auto records = sim::generate_trace(sim::Scenario(config)).records;
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  return records;
}

using IncidentKey = std::tuple<std::uint32_t, int, int, util::Minute,
                               util::Minute, std::uint32_t, std::uint64_t,
                               std::uint64_t, std::uint32_t, util::Minute>;

IncidentKey key_of(const AttackIncident& inc) {
  return {inc.vip.value(),
          static_cast<int>(inc.direction),
          static_cast<int>(inc.type),
          inc.start,
          inc.end,
          inc.active_minutes,
          inc.total_sampled_packets,
          inc.peak_sampled_ppm,
          inc.peak_unique_remotes,
          inc.ramp_up_minutes};
}

StreamMonitor make_monitor(std::vector<AttackIncident>* incidents,
                           StreamConfig stream = {}) {
  return StreamMonitor(
      sim_cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      nullptr,
      [incidents](const AttackIncident& inc) { incidents->push_back(inc); },
      stream);
}

std::string checkpoint_bytes(const StreamMonitor& monitor) {
  std::ostringstream out;
  monitor.checkpoint(out);
  return out.str();
}

class StreamCheckpointThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamCheckpointThreads, ResumedRunMatchesUninterrupted) {
  const auto feed = scenario_feed(GetParam());
  ASSERT_GT(feed.size(), 1000u);
  const std::size_t half = feed.size() / 2;

  // Uninterrupted reference.
  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference = make_monitor(&ref_incidents);
  for (const auto& r : feed) reference.ingest(r);
  const std::string ref_state = checkpoint_bytes(reference);

  // Interrupted: ingest half, checkpoint, restore into a fresh monitor
  // (incidents already emitted before the checkpoint belong to the first
  // process), ingest the rest.
  std::vector<AttackIncident> first_half_incidents;
  StreamMonitor before = make_monitor(&first_half_incidents);
  for (std::size_t i = 0; i < half; ++i) before.ingest(feed[i]);
  std::istringstream saved(checkpoint_bytes(before));

  std::vector<AttackIncident> resumed_incidents;
  StreamMonitor resumed = make_monitor(&resumed_incidents);
  resumed.restore(saved);
  for (std::size_t i = half; i < feed.size(); ++i) resumed.ingest(feed[i]);

  // Byte-identical monitor state...
  EXPECT_EQ(checkpoint_bytes(resumed), ref_state);
  EXPECT_EQ(resumed.records_ingested(), reference.records_ingested());
  EXPECT_EQ(resumed.records_late(), reference.records_late());
  EXPECT_EQ(resumed.records_unclassifiable(),
            reference.records_unclassifiable());
  EXPECT_EQ(resumed.windows_closed(), reference.windows_closed());
  EXPECT_EQ(resumed.alerts(), reference.alerts());

  // ...and identical incident output (first process + resumed == reference).
  reference.finish();
  resumed.finish();
  std::vector<IncidentKey> ref_keys;
  for (const auto& inc : ref_incidents) ref_keys.push_back(key_of(inc));
  std::vector<IncidentKey> split_keys;
  for (const auto& inc : first_half_incidents) split_keys.push_back(key_of(inc));
  for (const auto& inc : resumed_incidents) split_keys.push_back(key_of(inc));
  std::sort(ref_keys.begin(), ref_keys.end());
  std::sort(split_keys.begin(), split_keys.end());
  EXPECT_EQ(split_keys, ref_keys);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamCheckpointThreads,
                         ::testing::Values(1u, 2u, 8u));

TEST(StreamCheckpoint, ResumedRunMatchesUninterruptedOnDegradedFeed) {
  auto feed = scenario_feed(1);
  fault::RecordPlan plan;
  plan.reorder_window = 64;
  plan.duplicate_prob = 0.01;
  const auto degraded = fault::FaultInjector(5).degrade(feed, plan);

  // Reorder tolerance: the per-record displacement bound translates to a
  // minute lag of at most the largest backward minute step in the feed.
  util::Minute max_lag = 0;
  util::Minute max_seen = degraded.empty() ? 0 : degraded.front().minute;
  for (const auto& r : degraded) {
    max_seen = std::max(max_seen, r.minute);
    max_lag = std::max(max_lag, max_seen - r.minute);
  }
  StreamConfig stream;
  stream.reorder_lag = max_lag;
  stream.suppress_duplicates = true;

  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference = make_monitor(&ref_incidents, stream);
  for (const auto& r : degraded) reference.ingest(r);

  const std::size_t half = degraded.size() / 2;
  std::vector<AttackIncident> split_incidents;
  StreamMonitor before = make_monitor(&split_incidents, stream);
  for (std::size_t i = 0; i < half; ++i) before.ingest(degraded[i]);
  std::istringstream saved(checkpoint_bytes(before));
  StreamMonitor resumed = make_monitor(&split_incidents, stream);
  resumed.restore(saved);
  for (std::size_t i = half; i < degraded.size(); ++i) resumed.ingest(degraded[i]);

  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(reference));
  EXPECT_EQ(resumed.records_duplicate(), reference.records_duplicate());
  EXPECT_GT(resumed.records_duplicate(), 0u);
}

TEST(StreamCheckpoint, RestoreRejectsDamagedCheckpoints) {
  std::vector<AttackIncident> incidents;
  StreamMonitor monitor = make_monitor(&incidents);
  FlowRecord r;
  r.minute = 10;
  r.src_ip = netflow::IPv4::from_octets(9, 9, 9, 9);
  r.dst_ip = netflow::IPv4::from_octets(100, 64, 0, 1);
  r.packets = 5;
  r.bytes = 200;
  monitor.ingest(r);
  std::string bytes = checkpoint_bytes(monitor);

  {  // bad magic
    std::string mangled = bytes;
    mangled[0] = 'X';
    std::istringstream in(mangled);
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  {  // flipped payload bit -> CRC mismatch
    std::string mangled = bytes;
    mangled[mangled.size() / 2] ^= 0x10;
    std::istringstream in(mangled);
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  {  // truncation
    std::istringstream in(bytes.substr(0, bytes.size() - 3));
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  // The pristine bytes still restore after all the failed attempts.
  std::istringstream in(bytes);
  StreamMonitor target = make_monitor(&incidents);
  target.restore(in);
  EXPECT_EQ(checkpoint_bytes(target), bytes);
  EXPECT_EQ(target.records_ingested(), 1u);
}

TEST(StreamCheckpoint, ClosedIncidentsLeaveNoState) {
  // A thousand one-minute SYN floods on distinct VIPs, next to a control
  // monitor that sees the same VIPs at the same minute with no flood. Each
  // VIP's per-series detector bank is kept on purpose, and it is the same
  // in both monitors; once the floods time out, their incidents
  // (LiveIncident) must be gone, not kept as dead slots.
  std::vector<AttackIncident> flood_incidents;
  std::vector<AttackIncident> control_incidents;
  StreamMonitor flooded = make_monitor(&flood_incidents);
  StreamMonitor control = make_monitor(&control_incidents);
  const std::uint64_t empty_bytes = flooded.approx_state_bytes();
  for (std::uint32_t v = 0; v < 1000; ++v) {
    FlowRecord r;
    r.minute = 10;
    r.src_ip = netflow::IPv4::from_octets(9, 9, 9, 9);
    r.dst_ip = netflow::IPv4(
        netflow::IPv4::from_octets(100, 64, 0, 0).value() + v);
    r.protocol = netflow::Protocol::kTcp;
    r.packets = 300;
    r.bytes = 300 * 40;
    r.tcp_flags = netflow::TcpFlags::kSyn;
    flooded.ingest(r);
    r.tcp_flags = netflow::TcpFlags::kAck;
    control.ingest(r);
  }
  EXPECT_GT(flooded.approx_state_bytes(), empty_bytes);
  flooded.advance_to(20);
  control.advance_to(20);

  EXPECT_EQ(flood_incidents.size(), 1000u);
  EXPECT_TRUE(control_incidents.empty());
  EXPECT_EQ(flooded.series_count(), control.series_count());
  EXPECT_LE(flooded.approx_state_bytes(), control.approx_state_bytes() + 64);
  // Only the alert and incident counters' varints may differ.
  EXPECT_LE(checkpoint_bytes(flooded).size(),
            checkpoint_bytes(control).size() + 8);
}

TEST(StreamCheckpoint, RestoreReplacesAMonitorThatRanAhead) {
  // restore() must replace everything, including a monitor's progress past
  // the checkpoint (its open windows, live incidents and expiry position).
  const auto feed = scenario_feed(1);
  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference = make_monitor(&ref_incidents);
  for (const auto& r : feed) reference.ingest(r);
  const std::string ref_state = checkpoint_bytes(reference);
  reference.finish();

  const std::size_t half = feed.size() / 2;
  std::vector<AttackIncident> split_incidents;
  StreamMonitor before = make_monitor(&split_incidents);
  for (std::size_t i = 0; i < half; ++i) before.ingest(feed[i]);
  std::istringstream saved(checkpoint_bytes(before));

  std::vector<AttackIncident> ahead_incidents;
  StreamMonitor ahead = make_monitor(&ahead_incidents);
  for (std::size_t i = 0; i < half + half / 2; ++i) ahead.ingest(feed[i]);
  ahead_incidents.clear();  // emitted past the checkpoint, by a lost process
  ahead.restore(saved);
  for (std::size_t i = half; i < feed.size(); ++i) ahead.ingest(feed[i]);
  EXPECT_EQ(checkpoint_bytes(ahead), ref_state);
  ahead.finish();

  split_incidents.insert(split_incidents.end(), ahead_incidents.begin(),
                         ahead_incidents.end());
  ASSERT_EQ(split_incidents.size(), ref_incidents.size());
  for (std::size_t i = 0; i < ref_incidents.size(); ++i) {
    EXPECT_EQ(key_of(split_incidents[i]), key_of(ref_incidents[i]))
        << "incident " << i;
  }
}

TEST(StreamCheckpoint, VersionOneFrameIsRejected) {
  std::vector<AttackIncident> incidents;
  StreamMonitor source = make_monitor(&incidents);
  for (const auto& r : scenario_feed(1)) {
    if (r.minute > 200) break;
    source.ingest(r);
  }
  std::string old_frame = checkpoint_bytes(source);
  old_frame[4] = 1;  // DMCK version 1: per-key slots, no ramp-up peaks
  old_frame[5] = 0;

  StreamMonitor target = make_monitor(&incidents);
  FlowRecord r;
  r.minute = 3;
  r.src_ip = netflow::IPv4::from_octets(9, 9, 9, 9);
  r.dst_ip = netflow::IPv4::from_octets(100, 64, 0, 1);
  r.packets = 5;
  r.bytes = 200;
  target.ingest(r);
  const std::string before = checkpoint_bytes(target);
  std::istringstream in(old_frame);
  try {
    target.restore(in);
    FAIL() << "restore accepted a version-1 checkpoint";
  } catch (const netflow::FrameError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()),
              static_cast<int>(netflow::FrameError::Kind::kBadVersion))
        << e.what();
  }
  EXPECT_EQ(checkpoint_bytes(target), before);
  EXPECT_EQ(target.records_ingested(), 1u);
}

TEST(StreamCheckpoint, CheckpointBytesAreDeterministic) {
  const auto feed = scenario_feed(1);
  std::vector<AttackIncident> a_inc;
  std::vector<AttackIncident> b_inc;
  StreamMonitor a = make_monitor(&a_inc);
  StreamMonitor b = make_monitor(&b_inc);
  for (const auto& r : feed) {
    a.ingest(r);
    b.ingest(r);
  }
  EXPECT_EQ(checkpoint_bytes(a), checkpoint_bytes(b));
}

}  // namespace
}  // namespace dm::detect
