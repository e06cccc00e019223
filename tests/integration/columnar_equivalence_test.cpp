// The columnar record store must be invisible to every consumer: a Study
// built on ColumnarRecords has to reproduce, byte for byte, what an
// independent array-of-structs reference produces — decoded records and
// directions against an in-test AoS pipeline (classify + stable canonical
// sort over the serial generator output), and windows, detections, and the
// four record-consuming exhibits across 1/2/8 threads. Exhibit
// serialization and study comparison live in study_exhibits.h, shared with
// the spill-equivalence suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/study.h"
#include "netflow/window_aggregator.h"
#include "sim/trace_generator.h"
#include "integration/study_exhibits.h"

namespace dm {
namespace {

using test_support::Exhibits;
using test_support::exhibits_of;
using test_support::expect_same_study;

sim::ScenarioConfig base_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.seed = 31337;
  return config;
}

/// Independent AoS reference: serial generation, classification, and a
/// stable std::sort on the documented canonical key — no ColumnarRecords,
/// no shard merge, no parallel sort. The stable sort's preserved arrival
/// order is exactly the pipeline's arrival-index tie-break.
struct AosReference {
  std::vector<netflow::FlowRecord> records;
  std::vector<netflow::Direction> directions;
};

AosReference build_reference(const sim::Scenario& scenario) {
  exec::ThreadPool serial_pool(exec::workers_for(1));
  sim::TraceResult generated = sim::generate_trace(scenario, &serial_pool);

  AosReference ref;
  const auto& cloud = scenario.vips().cloud_space();
  for (const netflow::FlowRecord& r : generated.records) {
    if (const auto dir = netflow::classify(r, cloud)) {
      ref.records.push_back(r);
      ref.directions.push_back(*dir);
    }
  }

  std::vector<std::uint32_t> order(ref.records.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(
      order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        const netflow::OrientedFlow fa{&ref.records[a], ref.directions[a]};
        const netflow::OrientedFlow fb{&ref.records[b], ref.directions[b]};
        return std::make_tuple(fa.vip().value(),
                               static_cast<int>(ref.directions[a]),
                               ref.records[a].minute, fa.remote_ip().value()) <
               std::make_tuple(fb.vip().value(),
                               static_cast<int>(ref.directions[b]),
                               ref.records[b].minute, fb.remote_ip().value());
      });

  AosReference sorted;
  sorted.records.reserve(order.size());
  sorted.directions.reserve(order.size());
  for (const std::uint32_t i : order) {
    sorted.records.push_back(ref.records[i]);
    sorted.directions.push_back(ref.directions[i]);
  }
  return sorted;
}

void expect_matches_reference(const AosReference& ref,
                              const netflow::WindowedTrace& trace) {
  const auto records = trace.records();
  ASSERT_EQ(records.size(), ref.records.size());
  for (auto it = records.begin(); it != records.end(); ++it) {
    const std::size_t i = it.index();
    ASSERT_EQ(*it, ref.records[i]) << "record " << i;
    ASSERT_EQ(it.direction(), ref.directions[i]) << "direction " << i;
  }
}

TEST(ColumnarEquivalence, StudyMatchesAosReferenceAndIsThreadInvariant) {
  auto serial_config = base_config();
  serial_config.thread_count = 1;
  const core::Study serial(serial_config);

  // The scenario must actually exercise the machinery under test.
  ASSERT_GT(serial.record_count(), 0u);
  ASSERT_FALSE(serial.detection().incidents.empty());

  // Decoded records + directions vs the independent AoS pipeline.
  const AosReference reference = build_reference(serial.scenario());
  expect_matches_reference(reference, serial.trace());

  const Exhibits serial_exhibits = exhibits_of(serial);
  ASSERT_FALSE(serial_exhibits.remotes.empty());
  ASSERT_FALSE(serial_exhibits.spoofing.empty());

  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE("thread_count=" + std::to_string(threads));
    auto config = base_config();
    config.thread_count = threads;
    const core::Study parallel(config);
    expect_matches_reference(reference, parallel.trace());
    expect_same_study(serial, serial_exhibits, parallel);
  }
}

}  // namespace
}  // namespace dm
