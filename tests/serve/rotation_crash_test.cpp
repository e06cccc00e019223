// Checkpoint rotation crash matrix: kill the rotation protocol at every
// kill-point (optionally corrupting the newest committed generation as
// well), recover, replay — and require the final fleet state to be
// byte-identical to an uninterrupted run, with the damage ledger naming
// exactly what was lost. Runs at 1/2/8 serialization threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "serve/supervisor.h"
#include "sim/trace_generator.h"

// Rotation-coverage manifest — tests/lint/rotation_coverage_test.cpp keys
// on these names. The snapshot_files() byte-identity oracle serializes and
// re-verifies every checkpointed struct the serve fleet persists:
// TenantBook, BucketBook, ShardBook, and ShedLedgerEntry through the
// supervisor book, and OpenWindow, LiveIncident, SeriesState, State,
// VipMinuteStats, and AttackIncident through each shard's DMCK monitor
// checkpoint. Add a new checkpointed struct to the fleet and the tripwire
// fails until it is named (and exercised) here.
namespace dm::serve {
namespace {

namespace fs = std::filesystem;
using netflow::FlowRecord;

netflow::PrefixSet sim_cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

const std::vector<FlowRecord>& scenario_feed() {
  static const std::vector<FlowRecord> feed = [] {
    auto records =
        sim::generate_trace(sim::Scenario(sim::ScenarioConfig::smoke()))
            .records;
    std::stable_sort(records.begin(), records.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.minute < b.minute;
                     });
    return records;
  }();
  return feed;
}

std::vector<TenantSpec> fleet_tenants() {
  std::vector<TenantSpec> tenants;
  tenants.push_back({"alpha", 2, 400, 0, 4});  // rate-budgeted: sheds
  tenants.push_back({"beta", 2, 0, 0, 8});     // unlimited
  return tenants;
}

ServeConfig fleet_config(const std::string& state_dir) {
  ServeConfig config;
  config.seed = 21;
  config.rotation_interval = 120;  // 11 in-feed rotations over the smoke day
  config.keep_generations = 2;     // GC fires from the 3rd rotation on
  config.state_dir = state_dir;
  return config;
}

std::unique_ptr<Supervisor> make_supervisor(const std::string& state_dir,
                                            exec::ThreadPool* pool) {
  return std::make_unique<Supervisor>(sim_cloud_space(), nullptr,
                                      fleet_tenants(),
                                      fleet_config(state_dir), nullptr, pool);
}

std::string snapshot_blob(Supervisor& sup) {
  std::string blob;
  for (const ShardFile& f : sup.snapshot_files()) {
    blob += f.name;
    blob.push_back('\0');
    blob.append(f.bytes.begin(), f.bytes.end());
  }
  return blob;
}

/// Committed (non-.tmp) generation numbers under `dir`, ascending.
std::vector<std::int64_t> committed_generations(const fs::path& dir) {
  std::vector<std::int64_t> gens;
  if (!fs::exists(dir)) return gens;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("gen-", 0) == 0 && name.find(".tmp") == std::string::npos) {
      gens.push_back(std::stoll(name.substr(4)));
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

struct ReferenceRun {
  std::string blob;
  std::int64_t final_generation = -1;
  std::vector<std::int64_t> generations;
};

ReferenceRun run_reference(exec::ThreadPool* pool, const fs::path& dir) {
  fs::remove_all(dir);
  auto sup = make_supervisor(dir.string(), pool);
  for (const auto& r : scenario_feed()) sup->ingest_routed(r);
  sup->finish();
  sup->rotate_now();
  ReferenceRun ref;
  ref.blob = snapshot_blob(*sup);
  ref.final_generation = sup->last_generation();
  ref.generations = committed_generations(dir);
  EXPECT_GT(sup->book(0).shed, 0u) << "alpha's rate budget never tripped";
  EXPECT_EQ(sup->book(0).offered, sup->book(0).admitted + sup->book(0).shed);
  return ref;
}

/// One crash-matrix cell: crash at (step, occurrence), optionally corrupt
/// the newest committed generation before recovery, then recover + replay
/// and compare against `ref`. Returns false when the armed kill-point was
/// never reached (the cell is vacuous).
bool run_crash_cell(exec::ThreadPool* pool, const fs::path& dir,
                    const ReferenceRun& ref, RotationStep step,
                    std::uint64_t occurrence, bool corrupt_newest) {
  SCOPED_TRACE(std::string(rotation_step_name(step)) + " occurrence " +
               std::to_string(occurrence) +
               (corrupt_newest ? " + corrupted newest gen" : ""));
  fs::remove_all(dir);
  const auto& feed = scenario_feed();

  fault::KillSwitch kill(static_cast<std::uint64_t>(step), occurrence);
  bool crashed = false;
  {
    auto victim = make_supervisor(dir.string(), pool);
    victim->set_rotation_killswitch(&kill);
    try {
      for (const auto& r : feed) victim->ingest_routed(r);
      victim->finish();
      victim->rotate_now(&kill);
    } catch (const fault::InjectedCrash&) {
      crashed = true;
    }
  }  // the victim process "dies": all in-memory state is abandoned
  if (!crashed) {
    fs::remove_all(dir);
    return false;
  }

  // Optionally damage the newest committed generation the way a bad disk
  // would, with the injector's exact ledger as ground truth.
  std::int64_t corrupted_gen = -1;
  const char* corrupted_file = "t0-s0.dmck";
  if (corrupt_newest) {
    const auto gens = committed_generations(dir);
    if (!gens.empty()) {
      corrupted_gen = gens.back();
      const fs::path victim_file =
          dir / ("gen-" + std::to_string(corrupted_gen)) / corrupted_file;
      std::vector<std::uint8_t> bytes;
      {
        std::ifstream in(victim_file, std::ios::binary);
        EXPECT_TRUE(in.good()) << victim_file;
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
      }
      fault::CheckpointPlan plan;
      plan.bit_flips = 2;
      const fault::CheckpointDamage damage =
          fault::FaultInjector(99).corrupt_checkpoint(
              bytes, plan, static_cast<std::uint64_t>(corrupted_gen));
      EXPECT_TRUE(damage.any());
      std::ofstream out(victim_file, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }

  auto resumed = make_supervisor(dir.string(), pool);
  const RecoveryReport report = resumed->recover();

  // Damage ledger exactness: a pre-commit crash leaves exactly the torn
  // staging dir; the corrupted generation (when present) must be called out
  // as a CRC mismatch on the file we damaged.
  const bool pre_commit =
      static_cast<std::uint64_t>(step) <
      static_cast<std::uint64_t>(RotationStep::kCommit);
  bool saw_torn = false;
  bool saw_crc = false;
  for (const DamageEntry& entry : report.ledger) {
    if (entry.kind == DamageKind::kTornStaging) {
      saw_torn = true;
      EXPECT_EQ(entry.generation, -1);
      EXPECT_NE(entry.file.find(".tmp"), std::string::npos);
    }
    if (entry.kind == DamageKind::kCrcMismatch) {
      saw_crc = true;
      EXPECT_EQ(entry.generation, corrupted_gen);
      EXPECT_NE(entry.file.find(corrupted_file), std::string::npos);
    }
  }
  EXPECT_EQ(saw_torn, pre_commit);
  EXPECT_EQ(saw_crc, corrupted_gen >= 0);
  if (corrupted_gen >= 0) {
    EXPECT_LT(report.generation, corrupted_gen)
        << "recovery adopted a corrupted generation";
  }

  // Resume contract: the adopted generation's feed index replayed forward
  // must land on the byte-identical final state.
  if (report.resume_index > feed.size()) {
    ADD_FAILURE() << "resume index " << report.resume_index
                  << " past the end of the feed";
    fs::remove_all(dir);
    return true;
  }
  if (report.generation < 0) {
    EXPECT_EQ(report.resume_index, 0u);
  }
  for (std::size_t i = report.resume_index; i < feed.size(); ++i) {
    resumed->ingest_routed(feed[i]);
  }
  resumed->finish();
  resumed->rotate_now();

  EXPECT_EQ(snapshot_blob(*resumed), ref.blob)
      << "resumed fleet state diverged from the uninterrupted run";
  EXPECT_EQ(resumed->last_generation(), ref.final_generation);
  EXPECT_EQ(committed_generations(dir), ref.generations)
      << "generation numbering failed to converge";
  fs::remove_all(dir);
  return true;
}

class RotationCrashMatrix : public ::testing::TestWithParam<unsigned> {
 protected:
  fs::path matrix_dir(const char* tag) const {
    return fs::temp_directory_path() /
           ("dm_serve_crash_" + std::to_string(GetParam()) + "_" + tag);
  }
};

TEST_P(RotationCrashMatrix, EveryKillPointRecoversByteIdentical) {
  exec::ThreadPool pool(GetParam());
  const fs::path ref_dir = matrix_dir("ref");
  const ReferenceRun ref = run_reference(&pool, ref_dir);
  fs::remove_all(ref_dir);
  ASSERT_FALSE(ref.blob.empty());
  ASSERT_GE(ref.final_generation, 2);  // rotation actually happened

  const fs::path dir = matrix_dir("cell");
  for (std::uint64_t s = 1; s <= kRotationStepCount; ++s) {
    const auto step = static_cast<RotationStep>(s);
    for (const bool corrupt : {false, true}) {
      EXPECT_TRUE(run_crash_cell(&pool, dir, ref, step, 1, corrupt))
          << rotation_step_name(step) << " was never reached";
    }
  }
}

TEST_P(RotationCrashMatrix, MidGenerationAndRepeatedKillPoints) {
  exec::ThreadPool pool(GetParam());
  const fs::path ref_dir = matrix_dir("ref2");
  const ReferenceRun ref = run_reference(&pool, ref_dir);
  fs::remove_all(ref_dir);

  const fs::path dir = matrix_dir("cell2");
  // Crash on the 3rd shard file of a rotation (mid-generation), on the 2nd
  // committed generation, and on the 2nd GC pass.
  EXPECT_TRUE(
      run_crash_cell(&pool, dir, ref, RotationStep::kShardRename, 3, false));
  EXPECT_TRUE(run_crash_cell(&pool, dir, ref, RotationStep::kShardWrite, 8,
                             false));  // 2nd rotation, mid-stage
  EXPECT_TRUE(run_crash_cell(&pool, dir, ref, RotationStep::kCommit, 2, true));
  EXPECT_TRUE(
      run_crash_cell(&pool, dir, ref, RotationStep::kGcRemove, 2, false));
}

INSTANTIATE_TEST_SUITE_P(Threads, RotationCrashMatrix,
                         ::testing::Values(1u, 2u, 8u));

// Randomized soak over the same harness: arbitrary (step, occurrence,
// corruption) cells must always converge. DM_SOAK_SECONDS extends it; the
// failing cell is printed on any assertion.
TEST(RotationCrashSoak, RandomCellsAlwaysConverge) {
  const char* env = std::getenv("DM_SOAK_SECONDS");
  const double seconds = env != nullptr ? std::atof(env) : 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000));

  exec::ThreadPool pool(2);
  const fs::path ref_dir =
      fs::temp_directory_path() / "dm_serve_crash_soak_ref";
  const ReferenceRun ref = run_reference(&pool, ref_dir);
  fs::remove_all(ref_dir);
  const fs::path dir = fs::temp_directory_path() / "dm_serve_crash_soak";

  std::random_device device;
  std::mt19937_64 rng((static_cast<std::uint64_t>(device()) << 32) |
                      device());
  std::size_t iterations = 0;
  do {
    const auto step = static_cast<RotationStep>(1 + rng() % kRotationStepCount);
    const std::uint64_t occurrence = 1 + rng() % 12;
    const bool corrupt = rng() % 2 == 0;
    SCOPED_TRACE("soak cell: step " +
                 std::string(rotation_step_name(step)) + " occurrence " +
                 std::to_string(occurrence) +
                 (corrupt ? " corrupt" : " clean"));
    // Unreachable occurrences are fine in the soak: the cell reports vacuous.
    run_crash_cell(&pool, dir, ref, step, occurrence, corrupt);
    ++iterations;
  } while (std::chrono::steady_clock::now() < deadline || iterations < 2);
  SUCCEED() << iterations << " soak cells";
}

// Rotator-level damage taxonomy: each tamper shape must be classified with
// its own DamageKind and recovery must fall back to the older generation.
TEST(CheckpointRotator, ClassifiesEveryDamageKind) {
  const fs::path dir = fs::temp_directory_path() / "dm_rotator_damage";

  const auto make_files = [](std::uint8_t salt) {
    std::vector<ShardFile> files;
    files.push_back({"a.bin", {salt, 1, 2, 3, 4, 5, 6, 7, 8, 9}});
    files.push_back({"b.bin", {static_cast<std::uint8_t>(salt + 1), 9, 8}});
    return files;
  };

  struct Case {
    const char* label;
    DamageKind expected;
    void (*tamper)(const fs::path& gen_dir);
  };
  const Case cases[] = {
      {"delete MANIFEST", DamageKind::kMissingManifest,
       [](const fs::path& g) { fs::remove(g / "MANIFEST"); }},
      {"garble MANIFEST", DamageKind::kBadManifest,
       [](const fs::path& g) {
         std::ofstream out(g / "MANIFEST", std::ios::trunc);
         out << "DMMF 1\nnot a manifest\n";
       }},
      {"delete file", DamageKind::kMissingFile,
       [](const fs::path& g) { fs::remove(g / "a.bin"); }},
      {"truncate file", DamageKind::kSizeMismatch,
       [](const fs::path& g) { fs::resize_file(g / "b.bin", 1); }},
      {"flip file byte", DamageKind::kCrcMismatch,
       [](const fs::path& g) {
         std::fstream io(g / "a.bin",
                         std::ios::binary | std::ios::in | std::ios::out);
         io.seekp(4);
         io.put(static_cast<char>(0x7f));
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    fs::remove_all(dir);
    CheckpointRotator rotator(dir.string(), 4);
    EXPECT_EQ(rotator.rotate(make_files(0)), 0);
    EXPECT_EQ(rotator.rotate(make_files(10)), 1);
    c.tamper(dir / "gen-1");

    std::vector<DamageEntry> ledger;
    const LoadedGeneration loaded = rotator.recover(ledger);
    EXPECT_EQ(loaded.generation, 0);  // fell back one generation
    ASSERT_EQ(loaded.files.size(), 2u);
    EXPECT_EQ(loaded.files[0].bytes, make_files(0)[0].bytes);
    bool saw_expected = false;
    for (const DamageEntry& entry : ledger) {
      if (entry.kind == c.expected) {
        saw_expected = true;
        EXPECT_EQ(entry.generation, 1);
      }
    }
    EXPECT_TRUE(saw_expected) << damage_kind_name(c.expected);
    // The damaged generation is gone: numbering re-converges.
    EXPECT_EQ(committed_generations(dir), (std::vector<std::int64_t>{0}));
    EXPECT_EQ(rotator.rotate(make_files(20)), 1);
  }
  fs::remove_all(dir);
}

TEST(CheckpointRotator, SemanticRejectionFallsBackWithUndecodable) {
  // A CRC-clean generation the decoder rejects (wrong file set) must fall
  // back with kUndecodable — the supervisor uses this to survive a
  // generation written by a different tenant configuration.
  const fs::path dir = fs::temp_directory_path() / "dm_rotator_undecodable";
  fs::remove_all(dir);
  {
    exec::ThreadPool pool(0);
    auto sup = make_supervisor(dir.string(), &pool);
    const auto& feed = scenario_feed();
    for (std::size_t i = 0; i < feed.size() / 4; ++i) {
      sup->ingest_routed(feed[i]);
    }
    sup->rotate_now();
    EXPECT_GE(sup->last_generation(), 0);
  }
  {
    // Commit a bogus newer generation with a file set no supervisor of this
    // configuration would ever write.
    CheckpointRotator rotator(dir.string(), 2);
    std::vector<ShardFile> junk;
    junk.push_back({"junk.bin", {1, 2, 3}});
    rotator.rotate(std::move(junk));
  }
  exec::ThreadPool pool(0);
  auto resumed = make_supervisor(dir.string(), &pool);
  const RecoveryReport report = resumed->recover();
  EXPECT_GE(report.generation, 0);
  EXPECT_GT(report.resume_index, 0u);
  bool saw_undecodable = false;
  for (const DamageEntry& entry : report.ledger) {
    saw_undecodable |= entry.kind == DamageKind::kUndecodable;
  }
  EXPECT_TRUE(saw_undecodable);
  fs::remove_all(dir);
}

TEST(CheckpointRotator, GcKeepsExactlyTheNewestGenerations) {
  const fs::path dir = fs::temp_directory_path() / "dm_rotator_gc";
  fs::remove_all(dir);
  CheckpointRotator rotator(dir.string(), 3);
  for (std::uint8_t i = 0; i < 8; ++i) {
    std::vector<ShardFile> files;
    files.push_back({"x.bin", {i}});
    EXPECT_EQ(rotator.rotate(std::move(files)), i);
  }
  EXPECT_EQ(rotator.generations(),
            (std::vector<std::int64_t>{5, 6, 7}));
  EXPECT_EQ(committed_generations(dir),
            (std::vector<std::int64_t>{5, 6, 7}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dm::serve
