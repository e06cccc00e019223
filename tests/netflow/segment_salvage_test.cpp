// Crash-recovery acceptance for the spill tier: segment files damaged
// mid-set (deterministic fault::FaultInjector bit flips, tail truncation,
// header corruption) must produce an EXACT per-file damage ledger from
// SegmentStore::salvage — every undamaged segment recovered, every damaged
// one classified by failure mode — and a StreamMonitor restored from a
// checkpoint taken at a segment boundary must resume over the salvaged
// segments without drift (byte-identical monitor state and incidents).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detect/stream.h"
#include "fault/fault.h"
#include "netflow/segment_store.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kVipBase = 0x64400000;  // 100.64.0.0 — in-cloud

PrefixSet cloud_space() {
  PrefixSet set;
  set.add(Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

struct Oriented {
  FlowRecord record;
  Direction direction = Direction::kInbound;
};

/// Pipeline-shaped batch over in-cloud VIPs, so a StreamMonitor fed the
/// decoded records classifies every one of them.
std::vector<Oriented> cloud_batch(util::Rng& rng, std::size_t groups,
                                  std::size_t per_group) {
  std::vector<Oriented> out;
  std::uint32_t vip = kVipBase;
  for (std::size_t g = 0; g < groups; ++g) {
    vip = kVipBase + static_cast<std::uint32_t>(rng.below(64));
    const auto direction =
        rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
    const auto minute = static_cast<util::Minute>(g / 4);
    std::uint32_t remote = 0x55000000 + static_cast<std::uint32_t>(g);
    for (std::size_t i = 0; i < per_group; ++i) {
      remote += static_cast<std::uint32_t>(rng.below(1000));
      Oriented o;
      o.direction = direction;
      FlowRecord& r = o.record;
      r.minute = minute;
      r.src_ip = IPv4(direction == Direction::kInbound ? remote : vip);
      r.dst_ip = IPv4(direction == Direction::kInbound ? vip : remote);
      r.src_port = static_cast<std::uint16_t>(1024 + rng.below(100));
      r.dst_port = 80;
      r.protocol = Protocol::kTcp;
      r.tcp_flags = rng.chance(0.3) ? TcpFlags::kSyn : TcpFlags::kAck;
      r.packets = static_cast<std::uint32_t>(1 + rng.below(20));
      r.bytes = 40 * r.packets;
      out.push_back(o);
    }
  }
  return out;
}

fs::path scratch_dir(const std::string& suffix) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dm_salvage_" + std::to_string(::getpid()) + "_" + suffix);
  fs::remove_all(dir);
  return dir;
}

/// Spills `input` into several ~1 MiB segments under `dir`.
RecordStore spill_segments(const std::vector<Oriented>& input,
                           const fs::path& dir) {
  SpillConfig config;
  config.directory = dir.string();
  config.ram_budget_bytes = 2;  // seal threshold floors at 1 MiB
  SpillWriter writer(config);
  constexpr std::size_t kShard = 10'000;
  for (std::size_t i = 0; i < input.size(); i += kShard) {
    ColumnarRecords shard;
    const std::size_t end = std::min(input.size(), i + kShard);
    for (std::size_t k = i; k < end; ++k) {
      shard.push_back(input[k].record, input[k].direction);
    }
    writer.append(std::move(shard));
  }
  return std::move(writer).finish();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Applies `plan` to segment file `index` of `store` on disk; returns the
/// injector's ground-truth damage.
fault::SegmentDamage damage_segment(const RecordStore& store,
                                    std::size_t index,
                                    const fault::SegmentPlan& plan,
                                    std::uint64_t seed) {
  const std::string& path = store.segments().segments()[index].path;
  auto bytes = read_file(path);
  const fault::SegmentDamage damage =
      fault::FaultInjector(seed).corrupt_segment(bytes, plan, index);
  write_file(path, bytes);
  return damage;
}

TEST(SegmentSalvage, LedgerDescribesExactlyTheInjectedDamage) {
  util::Rng rng(901);
  const auto input = cloud_batch(rng, 7000, 100);
  const fs::path dir = scratch_dir("ledger");
  const RecordStore store = spill_segments(input, dir);
  ASSERT_TRUE(store.spilled());
  const auto segments = store.segments().segments();  // pre-damage copy
  const std::size_t n_segs = segments.size();
  ASSERT_GE(n_segs, 5u);

  // Damage three interior segments, one per failure mode. A single flipped
  // body bit must abandon the segment (CRC-detectable), a truncated file
  // must report the header's record count, and a header flip must leave
  // the file unreadable (record count unknowable).
  fault::SegmentPlan flip_plan;
  flip_plan.bit_flips = 1;
  const auto flip_damage = damage_segment(store, 1, flip_plan, 77);
  ASSERT_EQ(flip_damage.flipped_offsets.size(), 1u);
  ASSERT_GE(flip_damage.flipped_offsets[0], 56u);

  fault::SegmentPlan trunc_plan;
  trunc_plan.truncate_tail = true;
  const auto trunc_damage = damage_segment(store, 2, trunc_plan, 77);
  ASSERT_GT(trunc_damage.bytes_removed, 0u);

  fault::SegmentPlan header_plan;
  header_plan.corrupt_header = true;
  const auto header_damage = damage_segment(store, 3, header_plan, 77);
  ASSERT_TRUE(header_damage.header_corrupted);

  auto [salvaged, report] = SegmentStore::salvage(dir.string());

  // Exact ledger: one entry per file in order, statuses matching the
  // injected failure modes, record counts from the (intact) headers.
  ASSERT_EQ(report.entries.size(), n_segs);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.segments_damaged, 3u);
  EXPECT_EQ(report.segments_recovered, n_segs - 3);
  for (std::size_t i = 0; i < n_segs; ++i) {
    const auto& entry = report.entries[i];
    SCOPED_TRACE("segment " + std::to_string(i));
    EXPECT_EQ(entry.path, segments[i].path);
    switch (i) {
      case 1:
        EXPECT_EQ(entry.status, SegmentFileStatus::kBodyCorrupt);
        EXPECT_EQ(entry.records, segments[i].records);
        break;
      case 2:
        EXPECT_EQ(entry.status, SegmentFileStatus::kTruncated);
        EXPECT_EQ(entry.records, segments[i].records);
        EXPECT_EQ(entry.file_bytes,
                  segments[i].file_bytes - trunc_damage.bytes_removed);
        break;
      case 3:
        EXPECT_EQ(entry.status, SegmentFileStatus::kBadHeader);
        EXPECT_EQ(entry.records, 0u);  // header unreadable
        break;
      default:
        EXPECT_EQ(entry.status, SegmentFileStatus::kOk);
        EXPECT_EQ(entry.records, segments[i].records);
        EXPECT_EQ(entry.file_bytes, segments[i].file_bytes);
        break;
    }
  }
  std::uint64_t expect_recovered = 0;
  for (std::size_t i = 0; i < n_segs; ++i) {
    if (i != 1 && i != 2 && i != 3) expect_recovered += segments[i].records;
  }
  EXPECT_EQ(report.records_recovered, expect_recovered);
  // The header-corrupt segment's loss is unknowable from disk; the ledger
  // counts only losses it can prove from readable headers.
  EXPECT_EQ(report.records_lost, segments[1].records + segments[2].records);

  // Every record of every undamaged segment decodes back, in order, and
  // matches the original input slice — a damaged segment never poisons its
  // successors.
  const RecordStore survivors{std::move(salvaged)};
  ASSERT_EQ(survivors.size(), expect_recovered);
  auto it = survivors.all().begin();
  const auto end = survivors.all().end();
  for (std::size_t i = 0; i < n_segs; ++i) {
    if (i == 1 || i == 2 || i == 3) continue;
    const std::size_t first = segments[i].first_record;
    for (std::size_t k = 0; k < segments[i].records; ++k) {
      ASSERT_FALSE(it == end);
      ASSERT_EQ(*it, input[first + k].record)
          << "segment " << i << " record " << k;
      ++it;
    }
  }
  EXPECT_TRUE(it == end);
  fs::remove_all(dir);
}

TEST(SegmentSalvage, CleanSetSalvagesClean) {
  util::Rng rng(902);
  const auto input = cloud_batch(rng, 2000, 100);
  const fs::path dir = scratch_dir("clean");
  const RecordStore store = spill_segments(input, dir);
  ASSERT_TRUE(store.spilled());

  const auto [salvaged, report] = SegmentStore::salvage(dir.string());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.segments_damaged, 0u);
  EXPECT_EQ(report.segments_recovered, store.segments().segment_count());
  EXPECT_EQ(report.records_recovered, store.size());
  EXPECT_EQ(report.records_lost, 0u);
  EXPECT_EQ(salvaged.size(), store.size());
  fs::remove_all(dir);
}

// ---- Resume-without-drift: a monitor checkpointed at a segment boundary,
// restored after a crash that damaged already-processed segments, must
// finish byte-identical to an uninterrupted run.

detect::StreamMonitor make_monitor(
    std::vector<detect::AttackIncident>* incidents) {
  return detect::StreamMonitor(
      cloud_space(), nullptr, detect::DetectionConfig{},
      detect::TimeoutTable::paper(), nullptr,
      [incidents](const detect::AttackIncident& inc) {
        incidents->push_back(inc);
      },
      detect::StreamConfig{});
}

std::string checkpoint_bytes(const detect::StreamMonitor& monitor) {
  std::ostringstream out;
  monitor.checkpoint(out);
  return out.str();
}

TEST(SegmentSalvage, MonitorResumesFromCheckpointWithoutDrift) {
  util::Rng rng(903);
  const auto input = cloud_batch(rng, 4000, 100);
  const fs::path dir = scratch_dir("resume");
  const RecordStore store = spill_segments(input, dir);
  ASSERT_TRUE(store.spilled());
  const auto segments = store.segments().segments();
  ASSERT_GE(segments.size(), 4u);

  // Checkpoint boundary: after the first two segments.
  const std::size_t boundary = segments[2].first_record;
  std::vector<FlowRecord> feed;
  feed.reserve(store.size());
  for (const auto& r : store.all()) feed.push_back(r);

  // Uninterrupted reference; note how many incidents had been emitted when
  // it crossed the boundary, so the post-boundary tail is comparable.
  std::vector<detect::AttackIncident> ref_incidents;
  detect::StreamMonitor reference = make_monitor(&ref_incidents);
  for (std::size_t i = 0; i < boundary; ++i) reference.ingest(feed[i]);
  const std::size_t ref_at_boundary = ref_incidents.size();
  for (std::size_t i = boundary; i < feed.size(); ++i) {
    reference.ingest(feed[i]);
  }
  const std::string ref_state = checkpoint_bytes(reference);

  // Interrupted run: ingest up to the boundary, checkpoint, "crash". The
  // crash corrupts an already-processed segment on disk.
  std::vector<detect::AttackIncident> first_incidents;
  detect::StreamMonitor before = make_monitor(&first_incidents);
  for (std::size_t i = 0; i < boundary; ++i) before.ingest(feed[i]);
  const std::string saved = checkpoint_bytes(before);
  ASSERT_EQ(first_incidents.size(), ref_at_boundary);

  fault::SegmentPlan crash_plan;
  crash_plan.bit_flips = 4;
  const auto damage = damage_segment(store, 0, crash_plan, 42);
  ASSERT_TRUE(damage.any());

  // Recovery: salvage keeps every undamaged segment; the unprocessed tail
  // (segments >= 2) survives intact at the end of the salvaged store.
  auto [salvaged, report] = SegmentStore::salvage(dir.string());
  EXPECT_EQ(report.segments_damaged, 1u);
  ASSERT_EQ(salvaged.size(), store.size() - segments[0].records);
  const RecordStore recovered{std::move(salvaged)};
  const std::size_t tail_records = store.size() - boundary;
  const std::size_t tail_start = recovered.size() - tail_records;

  std::vector<detect::AttackIncident> resumed_incidents;
  detect::StreamMonitor resumed = make_monitor(&resumed_incidents);
  std::istringstream saved_in(saved);
  resumed.restore(saved_in);
  for (const auto& r : recovered.range(tail_start, recovered.size())) {
    resumed.ingest(r);
  }

  // Byte-identical monitor state and identical post-boundary incidents.
  EXPECT_EQ(checkpoint_bytes(resumed), ref_state);
  EXPECT_EQ(resumed.records_ingested(), reference.records_ingested());
  EXPECT_EQ(resumed.windows_closed(), reference.windows_closed());

  reference.finish();
  resumed.finish();
  ASSERT_EQ(ref_incidents.size() - ref_at_boundary, resumed_incidents.size());
  for (std::size_t i = 0; i < resumed_incidents.size(); ++i) {
    const auto& a = ref_incidents[ref_at_boundary + i];
    const auto& b = resumed_incidents[i];
    EXPECT_EQ(a.vip, b.vip) << "incident " << i;
    EXPECT_EQ(a.type, b.type) << "incident " << i;
    EXPECT_EQ(a.start, b.start) << "incident " << i;
    EXPECT_EQ(a.end, b.end) << "incident " << i;
    EXPECT_EQ(a.total_sampled_packets, b.total_sampled_packets)
        << "incident " << i;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dm::netflow
