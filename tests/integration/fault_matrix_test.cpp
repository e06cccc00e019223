// Degraded-feed fault matrix: every fault plan in the matrix must leave the
// system crash-free (runs under the ASan/UBSan CI stage), salvage must
// recover everything outside the damaged regions, and mild degradation must
// only mildly perturb the exhibits (bounded incident drift).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "detect/stream.h"
#include "fault/fault.h"
#include "netflow/trace_io.h"
#include "sim/trace_generator.h"

namespace dm {
namespace {

using detect::AttackIncident;
using detect::StreamConfig;
using detect::StreamMonitor;
using netflow::FlowRecord;

struct Scenario {
  std::vector<FlowRecord> feed;  // time-ordered
  netflow::PrefixSet cloud;
  const netflow::PrefixSet* blacklist = nullptr;
};

const Scenario& scenario() {
  static const Scenario s = [] {
    auto config = sim::ScenarioConfig::smoke();
    config.vips.vip_count = 100;
    config.days = 1;
    config.seed = 4242;
    const sim::Scenario scn(config);
    Scenario out;
    out.feed = sim::generate_trace(scn).records;
    std::stable_sort(out.feed.begin(), out.feed.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.minute < b.minute;
                     });
    out.cloud = scn.vips().cloud_space();
    return out;
  }();
  return s;
}

std::size_t run_monitor(const std::vector<FlowRecord>& feed,
                        StreamConfig stream) {
  std::vector<AttackIncident> incidents;
  StreamMonitor monitor(
      scenario().cloud, nullptr, detect::DetectionConfig{},
      detect::TimeoutTable::paper(), nullptr,
      [&incidents](const AttackIncident& inc) { incidents.push_back(inc); },
      stream);
  for (const auto& r : feed) monitor.ingest(r);
  monitor.finish();
  return incidents.size();
}

/// The smallest reorder lag that makes `feed` late-free.
util::Minute required_lag(const std::vector<FlowRecord>& feed) {
  util::Minute lag = 0;
  util::Minute max_seen = feed.empty() ? 0 : feed.front().minute;
  for (const auto& r : feed) {
    max_seen = std::max(max_seen, r.minute);
    lag = std::max(lag, max_seen - r.minute);
  }
  return lag;
}

TEST(FaultMatrix, ByteCorruptionMatrixNeverCrashesSalvage) {
  std::stringstream buffer;
  {
    netflow::TraceWriter writer(buffer, 4096);
    writer.write_all(scenario().feed);
    writer.finish();
  }
  const std::string clean_str = buffer.str();
  const std::vector<std::uint8_t> clean(clean_str.begin(), clean_str.end());

  const fault::BytePlan matrix[] = {
      {.bit_flips = 1},
      {.bit_flips = 200},
      {.corrupt_blocks = 1},
      {.corrupt_blocks = 5},
      {.truncate_blocks = 2},
      {.truncate_tail = true},
      {.bit_flips = 16, .corrupt_blocks = 3, .truncate_blocks = 2,
       .truncate_tail = true},
  };
  for (std::size_t i = 0; i < std::size(matrix); ++i) {
    SCOPED_TRACE("byte plan " + std::to_string(i));
    auto bytes = clean;
    const fault::ByteDamage damage =
        fault::FaultInjector(1000 + i).corrupt(bytes, matrix[i]);
    EXPECT_EQ(bytes.size() + damage.bytes_removed, clean.size());
    EXPECT_EQ(damage.tail_truncated, matrix[i].truncate_tail);
    std::stringstream in(std::string(bytes.begin(), bytes.end()));
    netflow::TraceReader reader(in, netflow::ReadMode::kSalvage);
    const auto records = reader.read_all();
    EXPECT_LE(records.size(), scenario().feed.size());
    EXPECT_EQ(records.size(), reader.report().records_recovered);
    EXPECT_LE(reader.report().bytes_lost(), bytes.size());
  }
}

TEST(FaultMatrix, RecordDegradationMatrixNeverCrashesMonitor) {
  const fault::RecordPlan matrix[] = {
      {.duplicate_prob = 0.5},
      {.reorder_window = 4096},
      {.loss_bursts = 8, .loss_burst_minutes = 30},
      {.stuck_clock_prob = 0.5},
      {.duplicate_prob = 0.2, .reorder_window = 512, .loss_bursts = 3,
       .loss_burst_minutes = 10, .stuck_clock_prob = 0.1},
  };
  for (std::size_t i = 0; i < std::size(matrix); ++i) {
    SCOPED_TRACE("record plan " + std::to_string(i));
    const auto degraded =
        fault::FaultInjector(2000 + i).degrade(scenario().feed, matrix[i]);
    // Run both strict (late records dropped) and lag-tolerant.
    run_monitor(degraded, StreamConfig{});
    StreamConfig tolerant;
    tolerant.reorder_lag = required_lag(degraded);
    tolerant.suppress_duplicates = true;
    run_monitor(degraded, tolerant);
  }
}

TEST(FaultMatrix, MildDegradationBoundsIncidentDrift) {
  const std::size_t clean_incidents = run_monitor(scenario().feed, {});
  ASSERT_GT(clean_incidents, 0u);

  // Mild, realistic degradation: ~1% duplicates, slight reordering, one
  // short outage. Exhibits must survive within a bounded drift.
  fault::RecordPlan plan;
  plan.duplicate_prob = 0.01;
  plan.reorder_window = 64;
  plan.loss_bursts = 1;
  plan.loss_burst_minutes = 5;
  fault::RecordDamage damage;
  const auto degraded =
      fault::FaultInjector(77).degrade(scenario().feed, plan, &damage);
  EXPECT_GT(damage.dropped, 0u);

  StreamConfig stream;
  stream.reorder_lag = required_lag(degraded);
  stream.suppress_duplicates = true;
  const std::size_t degraded_incidents = run_monitor(degraded, stream);

  // The 5-minute outage can split or erase a handful of incidents and the
  // post-gap baseline handling can merge others; anything beyond ±30% (or
  // ±3 for tiny counts) means degradation is distorting detection, not
  // perturbing it.
  const double lo = 0.7 * static_cast<double>(clean_incidents) - 3.0;
  const double hi = 1.3 * static_cast<double>(clean_incidents) + 3.0;
  EXPECT_GE(static_cast<double>(degraded_incidents), lo)
      << "clean=" << clean_incidents << " degraded=" << degraded_incidents;
  EXPECT_LE(static_cast<double>(degraded_incidents), hi)
      << "clean=" << clean_incidents << " degraded=" << degraded_incidents;
}

TEST(FaultMatrix, SalvagedTraceFeedsTheMonitorEndToEnd) {
  // Full degraded pipeline: serialize, corrupt two blocks, salvage, detect.
  // The monitor must run cleanly on salvage output and find most of what
  // the clean trace yields.
  std::stringstream buffer;
  {
    netflow::TraceWriter writer(buffer, 4096);
    writer.write_all(scenario().feed);
    writer.finish();
  }
  const std::string clean_str = buffer.str();
  std::vector<std::uint8_t> bytes(clean_str.begin(), clean_str.end());
  fault::BytePlan plan;
  plan.corrupt_blocks = 2;
  const fault::ByteDamage damage = fault::FaultInjector(9).corrupt(bytes, plan);
  EXPECT_EQ(damage.corrupted_blocks.size(), 2u);

  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  netflow::TraceReader reader(in, netflow::ReadMode::kSalvage);
  auto salvaged = reader.read_all();
  EXPECT_FALSE(reader.report().clean());
  EXPECT_LT(salvaged.size(), scenario().feed.size());

  std::stable_sort(salvaged.begin(), salvaged.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  const std::size_t clean_incidents = run_monitor(scenario().feed, {});
  const std::size_t salvaged_incidents = run_monitor(salvaged, {});
  EXPECT_GE(static_cast<double>(salvaged_incidents),
            0.5 * static_cast<double>(clean_incidents));
}

}  // namespace
}  // namespace dm
