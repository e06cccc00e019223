// The fused streaming path (sim::generate_windows) must produce a
// WindowedTrace BYTE-IDENTICAL to the ingest path a stored trace takes —
// generate_trace, written to .dmnf, read back, then aggregate_windows —
// records, directions, windows, and the unclassified count, at every
// thread count.
#include <gtest/gtest.h>

#include <sstream>

#include "integration/study_exhibits.h"
#include "netflow/trace_io.h"
#include "netflow/window_aggregator.h"
#include "sim/trace_generator.h"

namespace dm {
namespace {

sim::ScenarioConfig base_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.seed = 20150;
  return config;
}

TEST(FusedPipeline, MatchesUnfusedAtEveryThreadCount) {
  const sim::Scenario scenario(base_config());

  // Ingest-path reference, serial: generate, round-trip through the .dmnf
  // codec, aggregate.
  exec::ThreadPool serial_pool(exec::workers_for(1));
  const sim::TraceResult generated = sim::generate_trace(scenario, &serial_pool);
  ASSERT_GT(generated.records.size(), 0u);
  std::stringstream dmnf;
  {
    netflow::TraceWriter writer(dmnf, scenario.config().sampling);
    writer.write_all(generated.records);
    writer.finish();
  }
  netflow::TraceReader reader(dmnf);
  ASSERT_EQ(reader.sampling_denominator(), scenario.config().sampling);
  std::vector<netflow::FlowRecord> decoded = reader.read_all();
  ASSERT_EQ(decoded, generated.records);
  const netflow::WindowedTrace reference = netflow::aggregate_windows(
      std::move(decoded), scenario.vips().cloud_space(),
      &scenario.tds().as_prefix_set(), &serial_pool);
  ASSERT_FALSE(reference.windows().empty());

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("thread_count=" + std::to_string(threads));
    exec::ThreadPool pool(exec::workers_for(threads));
    const sim::FusedTrace fused = sim::generate_windows(scenario, &pool);
    EXPECT_EQ(fused.generated_records, generated.records.size());
    EXPECT_FALSE(fused.truth.episodes.empty());
    test_support::expect_same_trace(reference, fused.windowed);
  }
}

}  // namespace
}  // namespace dm
