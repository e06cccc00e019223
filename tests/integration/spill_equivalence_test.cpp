// Differential spill-vs-resident verification (DESIGN.md §5f): a Study run
// with the spill tier enabled must be byte-identical — windows, incidents,
// and all four record-consuming exhibits — to the resident-mode study, at
// 1/2/8 threads and across RAM budgets chosen to force zero, one, and many
// spill waves. The spill knob must be a pure memory/placement decision,
// never a semantic one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "core/study.h"
#include "integration/study_exhibits.h"
#include "netflow/segment_store.h"

namespace dm {
namespace {

namespace fs = std::filesystem;

using test_support::Exhibits;
using test_support::exhibits_of;
using test_support::expect_same_study;

sim::ScenarioConfig base_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.seed = 24601;
  return config;
}

/// Unique scratch directory per (suffix) under the system temp dir; removed
/// by the caller.
fs::path scratch_dir(const std::string& suffix) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dm_spill_eq_" + std::to_string(::getpid()) + "_" + suffix);
  fs::remove_all(dir);
  return dir;
}

struct SpillCase {
  const char* label;
  std::uint64_t ram_budget_bytes;
};

// Smoke traces encode to 14.9–17.0 MiB (seeds 7, 24601, 31337); SpillWriter
// seals at clamp(ram_budget / 2, 1 MiB, 64 MiB).
//   zero-spills  → threshold at the 64 MiB cap, far above the trace → 0
//                  segments sealed (finish() returns the resident store).
//   one-wave     → 8 MiB threshold, about half the trace → the first seal
//                  lands mid-run (2–3 segments in all).
//   many-waves   → threshold floors at 1 MiB → several segments.
constexpr SpillCase kSpillCases[] = {
    {"zero-spills", 1ull << 32},
    {"one-wave", 16ull << 20},
    {"many-waves", 2ull << 20},
};

TEST(SpillEquivalence, StudyIsByteIdenticalAcrossBudgetsAndThreads) {
  auto resident_config = base_config();
  resident_config.thread_count = 1;
  const core::Study resident(resident_config);
  ASSERT_GT(resident.record_count(), 0u);
  ASSERT_FALSE(resident.detection().incidents.empty());
  ASSERT_FALSE(resident.trace().store().spilled());
  const Exhibits resident_exhibits = exhibits_of(resident);
  ASSERT_FALSE(resident_exhibits.remotes.empty());

  for (const SpillCase& c : kSpillCases) {
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(c.label) +
                   " threads=" + std::to_string(threads));
      const fs::path dir =
          scratch_dir(std::string(c.label) + "_t" + std::to_string(threads));
      auto config = base_config();
      config.thread_count = threads;
      config.spill.directory = dir.string();
      config.spill.ram_budget_bytes = c.ram_budget_bytes;
      const core::Study spilled(config);

      // The case labels must describe what actually happened: the
      // zero-spill budget must come back resident, the others spilled.
      const netflow::RecordStore& store = spilled.trace().store();
      if (std::string(c.label) == "zero-spills") {
        EXPECT_FALSE(store.spilled());
      } else {
        EXPECT_TRUE(store.spilled());
        EXPECT_GE(store.segments().segment_count(), 1u);
        if (std::string(c.label) == "many-waves") {
          EXPECT_GE(store.segments().segment_count(), 2u);
        }
      }

      expect_same_study(resident, resident_exhibits, spilled);
      fs::remove_all(dir);
    }
  }
}

TEST(SpillEquivalence, UnfusedPipelineSpillsIdenticallyToo) {
  // The ingest path — aggregate_windows over decoded records, which
  // `dmnf detect --spill-dir` runs — must spill byte-identically too.
  const sim::Scenario scenario(base_config());
  exec::ThreadPool pool(exec::workers_for(2));
  const std::vector<netflow::FlowRecord> records =
      sim::generate_trace(scenario, &pool).records;
  const netflow::PrefixSet& cloud = scenario.vips().cloud_space();
  const netflow::PrefixSet* blacklist = &scenario.tds().as_prefix_set();
  const netflow::WindowedTrace resident =
      netflow::aggregate_windows(records, cloud, blacklist, &pool);
  ASSERT_FALSE(resident.store().spilled());

  const fs::path dir = scratch_dir("unfused");
  netflow::SpillConfig spill;
  spill.directory = dir.string();
  spill.ram_budget_bytes = 2ull << 20;
  const netflow::WindowedTrace spilled =
      netflow::aggregate_windows(records, cloud, blacklist, &pool, &spill);
  EXPECT_TRUE(spilled.store().spilled());
  test_support::expect_same_trace(resident, spilled);

  const detect::DetectionPipeline pipeline;
  const auto resident_incidents = pipeline.run(resident, &pool).incidents;
  const auto spilled_incidents = pipeline.run(spilled, &pool).incidents;
  ASSERT_FALSE(resident_incidents.empty());
  ASSERT_EQ(resident_incidents.size(), spilled_incidents.size());
  for (std::size_t i = 0; i < resident_incidents.size(); ++i) {
    ASSERT_EQ(test_support::incident_tuple(resident_incidents[i]),
              test_support::incident_tuple(spilled_incidents[i]))
        << "incident " << i;
  }
  fs::remove_all(dir);
}

TEST(SpillEquivalence, SegmentDirectoryReopensToTheSameRecords) {
  // The segment files a study leaves behind are a complete, self-contained
  // copy of the trace: SegmentStore::open on the directory must decode the
  // identical record sequence.
  const fs::path dir = scratch_dir("reopen");
  auto config = base_config();
  config.thread_count = 1;
  config.spill.directory = dir.string();
  config.spill.ram_budget_bytes = 2ull << 20;
  const core::Study study(config);
  ASSERT_TRUE(study.trace().store().spilled());

  const netflow::RecordStore reopened(
      netflow::SegmentStore::open(dir.string()));
  ASSERT_EQ(reopened.size(), study.record_count());
  auto expect = study.trace().records();
  auto got = reopened.all();
  auto eit = expect.begin();
  auto git = got.begin();
  for (; eit != expect.end() && git != got.end(); ++eit, ++git) {
    ASSERT_EQ(*eit, *git) << "record " << eit.index();
    ASSERT_EQ(eit.direction(), git.direction()) << "direction " << eit.index();
  }
  EXPECT_TRUE(eit == expect.end());
  EXPECT_TRUE(git == got.end());
  fs::remove_all(dir);
}

TEST(SpillEquivalence, WindowRangesOfOneSegmentShareOneMapping) {
  // Consecutive windows of one segment decode through the store's one kept
  // mapping: once window 0's range has mapped segment 0, every other window
  // of segment 0 must decode with the segment files moved away, because no
  // read maps the file again.
  const fs::path dir = scratch_dir("mapping");
  const fs::path moved = scratch_dir("mapping_moved");
  auto config = base_config();
  config.thread_count = 1;
  config.spill.directory = dir.string();
  config.spill.ram_budget_bytes = 2ull << 20;
  const core::Study study(config);
  const netflow::WindowedTrace& trace = study.trace();
  ASSERT_TRUE(trace.store().spilled());
  ASSERT_GE(trace.store().segments().segment_count(), 2u);
  const std::uint64_t segment0_records =
      trace.store().segments().segments()[0].records;
  const auto windows = trace.windows();
  ASSERT_FALSE(windows.empty());

  std::uint64_t decoded = 0;
  const auto count = [&](const netflow::VipMinuteStats& w) {
    const auto range = trace.records_of(w);
    for (auto it = range.begin(); it != range.end(); ++it) ++decoded;
  };
  count(windows[0]);
  fs::rename(dir, moved);
  std::size_t segment0_windows = 1;
  std::string error;
  try {
    for (; segment0_windows < windows.size() &&
           windows[segment0_windows].last_record <= segment0_records;
         ++segment0_windows) {
      count(windows[segment0_windows]);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  fs::remove_all(moved);
  EXPECT_EQ(error, "") << "after " << segment0_windows << " windows";
  EXPECT_GT(segment0_windows, 1u);
  EXPECT_EQ(decoded, segment0_records);
}

}  // namespace
}  // namespace dm
