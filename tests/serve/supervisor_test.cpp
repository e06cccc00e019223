// Supervisor admission control: deterministic 1:k shedding with exact
// ledgers, outage-informed baselines, checkpointed event sequences, a
// status report that adds up, and recovery past a book that does not decode;
// the pipelined shard ingest's event stream and state, byte-identical for
// every pool size; and the reorder-lag domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "netflow/frame.h"
#include "serve/supervisor.h"
#include "sim/trace_generator.h"

namespace dm::serve {
namespace {

using netflow::FlowRecord;

netflow::PrefixSet sim_cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

/// One VIP, minutes 0..29, with an offered-rate burst in minutes 5-6 that
/// must trip a 100-records-per-minute budget.
std::vector<FlowRecord> burst_feed() {
  std::vector<FlowRecord> feed;
  for (util::Minute minute = 0; minute < 30; ++minute) {
    const int count = (minute == 5 || minute == 6) ? 300 : 50;
    for (int i = 0; i < count; ++i) {
      FlowRecord r;
      r.minute = minute;
      r.src_ip = netflow::IPv4(0x08000000u + static_cast<std::uint32_t>(
                                                 minute * 1000 + i));
      r.dst_ip = netflow::IPv4::from_octets(100, 64, 0, 1);
      r.packets = 10;
      r.bytes = 400;
      feed.push_back(r);
    }
  }
  return feed;
}

std::vector<FlowRecord> scenario_feed() {
  auto records = sim::generate_trace(sim::Scenario(sim::ScenarioConfig::smoke()))
                     .records;
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  return records;
}

ServeConfig base_config() {
  ServeConfig config;
  config.seed = 21;
  return config;  // no state_dir: checkpoint rotation disabled
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

TEST(Supervisor, ShardAssignmentIsStableAndSpreads) {
  std::set<std::uint32_t> used;
  for (std::uint32_t vip = 0; vip < 1000; ++vip) {
    const std::uint32_t s = Supervisor::shard_of(vip, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, Supervisor::shard_of(vip, 4));
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 4u);  // splitmix64 spreads even contiguous VIPs
  EXPECT_EQ(Supervisor::shard_of(12345, 1), 0u);
}

TEST(Supervisor, RateBudgetShedsWithExactLedger) {
  const auto feed = burst_feed();
  std::vector<TenantSpec> tenants;
  tenants.push_back({"acme", 1, 100, 0, 4});
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), base_config());
  for (const auto& r : feed) sup.ingest(0, r);
  sup.finish();

  const TenantBook& book = sup.book(0);
  EXPECT_EQ(book.offered, feed.size());
  EXPECT_EQ(book.offered, book.admitted + book.shed);
  EXPECT_GT(book.shed, 0u);

  // Exactly the two burst minutes shed, and each ledger entry adds up. The
  // first 100 records of a minute pass before the budget trips; past it the
  // 1:4 sampler admits about a quarter.
  ASSERT_EQ(book.ledger.size(), 2u);
  for (const ShedLedgerEntry& entry : book.ledger) {
    EXPECT_TRUE(entry.minute == 5 || entry.minute == 6);
    EXPECT_EQ(entry.offered, 300u);
    EXPECT_EQ(entry.offered, entry.admitted + entry.shed);
    EXPECT_GE(entry.admitted, 100u);
    EXPECT_LT(entry.admitted, 200u);
  }
  // Ledger + open buckets + folded totals account for every shed record.
  EXPECT_EQ(book.ledger[0].shed + book.ledger[1].shed, book.shed);

  // Per-shard books agree with the tenant book (single shard here).
  EXPECT_EQ(book.shards[0].offered, book.offered);
  EXPECT_EQ(book.shards[0].admitted, book.admitted);
  EXPECT_EQ(book.shards[0].shed, book.shed);
  EXPECT_EQ(sup.monitor(0, 0).records_ingested(), book.admitted);
}

TEST(Supervisor, ShedMinutesBecomeOutagesForTheShardMonitor) {
  // Replay the supervisor's exact admission decisions into a bare monitor
  // with note_outage applied at the same points: if the supervisor wires
  // shed minutes into the excluded-silence path correctly, the two monitors
  // are byte-identical.
  const auto feed = burst_feed();
  std::vector<TenantSpec> tenants;
  tenants.push_back({"acme", 1, 100, 0, 4});
  ServeConfig config = base_config();
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), config);

  detect::StreamMonitor control(sim_cloud_space(), nullptr, config.detection,
                                config.timeouts, nullptr, nullptr,
                                config.stream);
  std::size_t ledger_seen = 0;
  for (const auto& r : feed) {
    const std::uint64_t admitted_before = sup.book(0).admitted;
    sup.ingest(0, r);
    // A ledger entry appearing means the supervisor just closed a shed
    // minute and declared the outage before ingesting `r` — mirror that.
    while (sup.book(0).ledger.size() > ledger_seen) {
      const ShedLedgerEntry& e = sup.book(0).ledger[ledger_seen++];
      control.note_outage(e.minute, e.minute + 1);
    }
    if (sup.book(0).admitted > admitted_before) control.ingest(r);
  }
  sup.finish();  // closes the remaining buckets (outages land before finish)
  while (sup.book(0).ledger.size() > ledger_seen) {
    const ShedLedgerEntry& e = sup.book(0).ledger[ledger_seen++];
    control.note_outage(e.minute, e.minute + 1);
  }
  control.finish();

  std::ostringstream sup_bytes(std::ios::binary);
  sup.monitor(0, 0).checkpoint(sup_bytes);
  std::ostringstream control_bytes(std::ios::binary);
  control.checkpoint(control_bytes);
  EXPECT_EQ(sup_bytes.str(), control_bytes.str());
}

TEST(Supervisor, MemoryBudgetShedsOncePressured) {
  const auto feed = burst_feed();
  std::vector<TenantSpec> tenants;
  tenants.push_back({"tiny", 1, 0, 1, 8});  // 1-byte budget: sheds after the
  ServeConfig config = base_config();       // first gauge refresh
  config.gauge_refresh = 16;
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), config);
  for (const auto& r : feed) sup.ingest(0, r);
  sup.finish();
  const TenantBook& book = sup.book(0);
  EXPECT_GT(book.shed, 0u);
  EXPECT_GT(book.admitted, 0u);
  EXPECT_EQ(book.offered, book.admitted + book.shed);
  EXPECT_GT(book.shards[0].state_gauge, 1u);
}

/// What one fleet run leaves behind: the BinarySink's bytes, the snapshot
/// files, and the records the admission controller shed.
struct FleetOutput {
  std::string events;
  std::string snapshot;
  std::uint64_t offered = 0;
  std::vector<std::uint64_t> shed;  ///< per tenant
};

FleetOutput run_fleet(const std::vector<FlowRecord>& feed,
                      std::vector<TenantSpec> tenants,
                      const ServeConfig& config, exec::ThreadPool* pool) {
  std::ostringstream out(std::ios::binary);
  BinarySink sink(out);
  BufferedWriter writer(sink, WriterConfig{});
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), config,
                 &writer, pool);
  for (const auto& r : feed) sup.ingest_routed(r);
  sup.finish();
  writer.close();
  FleetOutput result;
  result.events = out.str();
  result.snapshot = snapshot_blob(sup);
  for (std::size_t t = 0; t < sup.tenant_count(); ++t) {
    result.offered += sup.book(t).offered;
    result.shed.push_back(sup.book(t).shed);
  }
  return result;
}

std::uint32_t crc_of(const std::string& bytes) {
  return netflow::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

TEST(Supervisor, IdenticalRunsProduceIdenticalStateAcrossPools) {
  const auto feed = scenario_feed();
  const std::vector<TenantSpec> tenants = {{"alpha", 2, 400, 0, 4},
                                           {"beta", 2, 0, 0, 8}};
  FleetOutput first;
  for (const unsigned workers : {0u, 2u, 8u}) {
    exec::ThreadPool pool(workers);
    const FleetOutput run = run_fleet(feed, tenants, base_config(), &pool);
    if (first.snapshot.empty()) {
      first = run;
      EXPECT_FALSE(run.events.empty());
      EXPECT_EQ(run.offered, feed.size());
    } else {
      EXPECT_EQ(run.events, first.events) << workers << " workers diverged";
      EXPECT_EQ(run.snapshot, first.snapshot) << workers << " workers diverged";
    }
  }
}

TEST(Supervisor, EventStreamIsIdenticalAcrossPools) {
  // A reordered feed through a 2-shard and a 3-shard tenant, once without
  // budgets and once with a rate budget beside a memory budget, must emit
  // the same event bytes and leave the same state for every pool size. The
  // golden sizes and CRCs were captured from the serial implementation.
  fault::RecordPlan plan;
  plan.reorder_window = 32;
  fault::RecordDamage damage;
  const auto feed =
      fault::FaultInjector(11).degrade(scenario_feed(), plan, &damage);
  ASSERT_GT(damage.displaced, 0u);

  struct Case {
    const char* name;
    std::vector<TenantSpec> tenants;
    std::uint64_t gauge_refresh;
    std::size_t events_size;
    std::uint32_t events_crc;
    std::uint32_t snapshot_crc;
  };
  const Case cases[] = {
      {"unbudgeted",
       {{"alpha", 2, 0, 0, 8}, {"beta", 3, 0, 0, 8}},
       1024, 191385, 4192480817u, 4220052164u},
      {"budgeted",
       {{"alpha", 2, 400, 0, 4}, {"beta", 3, 0, 36000, 8}},
       64, 176821, 4190288336u, 2869826734u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServeConfig config = base_config();
    config.stream.reorder_lag = 2;
    config.gauge_refresh = c.gauge_refresh;
    const FleetOutput serial = run_fleet(feed, c.tenants, config, nullptr);
    EXPECT_EQ(serial.events.size(), c.events_size);
    EXPECT_EQ(crc_of(serial.events), c.events_crc);
    EXPECT_EQ(crc_of(serial.snapshot), c.snapshot_crc);
    for (std::size_t t = 0; t < c.tenants.size(); ++t) {
      const bool budgeted = c.tenants[t].max_records_per_minute > 0 ||
                            c.tenants[t].max_state_bytes > 0;
      EXPECT_EQ(serial.shed[t] > 0, budgeted) << "tenant " << t;
    }
    for (const unsigned workers : {0u, 1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(workers);
      exec::ThreadPool pool(workers);
      const FleetOutput pooled = run_fleet(feed, c.tenants, config, &pool);
      EXPECT_EQ(pooled.events, serial.events);
      EXPECT_EQ(pooled.snapshot, serial.snapshot);
      EXPECT_EQ(pooled.shed, serial.shed);
    }
  }
}

TEST(Supervisor, MonitorReadsBetweenRecordsAreSafe) {
  // A traced replay reads every shard's state gauge and every book once
  // per feed minute while the shard runs are on the pool. monitor() joins
  // them first, the books are the caller's own, and the reads change no
  // output.
  const auto feed = scenario_feed();
  const std::vector<TenantSpec> tenants = {{"alpha", 2, 0, 0, 8},
                                           {"beta", 2, 0, 0, 8}};
  exec::ThreadPool pool(3);
  const FleetOutput plain = run_fleet(feed, tenants, base_config(), &pool);

  std::ostringstream out(std::ios::binary);
  BinarySink sink(out);
  BufferedWriter writer(sink, WriterConfig{});
  Supervisor sup(sim_cloud_space(), nullptr, tenants, base_config(), &writer,
                 &pool);
  util::Minute newest = kNoMinute;
  std::uint64_t peak_state = 0;
  std::uint64_t offered = 0;
  for (const auto& r : feed) {
    const bool advances = newest == kNoMinute || r.minute > newest;
    sup.ingest_routed(r);
    if (!advances) continue;
    newest = r.minute;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < sup.tenant_count(); ++t) {
      for (std::uint32_t s = 0; s < sup.spec(t).shards; ++s) {
        peak_state =
            std::max(peak_state, sup.monitor(t, s).approx_state_bytes());
      }
      total += sup.book(t).offered;
    }
    EXPECT_GT(total, offered);
    offered = total;
  }
  sup.finish();
  writer.close();
  EXPECT_GT(peak_state, 0u);
  EXPECT_EQ(out.str(), plain.events);
  EXPECT_EQ(snapshot_blob(sup), plain.snapshot);
}

TEST(Supervisor, NegativeReorderLagIsRejected) {
  ServeConfig config = base_config();
  config.stream.reorder_lag = -1;
  std::vector<TenantSpec> tenants;
  tenants.push_back({"solo", 1, 0, 0, 8});
  EXPECT_THROW(Supervisor(sim_cloud_space(), nullptr, tenants, config),
               ConfigError);
}

TEST(Supervisor, ReorderLagSaturatesAtTheMinuteFloor) {
  // minute - reorder_lag must saturate next to INT64_MIN: a wrapped
  // subtraction would close the INT64_MIN bucket one minute later, while
  // it is still within the lag.
  ServeConfig config = base_config();
  config.stream.reorder_lag = 2;
  std::vector<TenantSpec> tenants;
  tenants.push_back({"solo", 1, 0, 0, 8});
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), config);
  FlowRecord r = burst_feed().front();
  r.minute = INT64_MIN;
  sup.ingest(0, r);
  r.minute = INT64_MIN + 1;
  sup.ingest(0, r);
  EXPECT_EQ(sup.book(0).open_buckets.size(), 2u);
  sup.finish();
  EXPECT_TRUE(sup.book(0).open_buckets.empty());
  EXPECT_EQ(sup.book(0).admitted, 2u);
  EXPECT_EQ(sup.monitor(0, 0).records_late(), 2u);
}

TEST(Supervisor, EventsCarryContiguousCheckpointedSequences) {
  const auto feed = scenario_feed();

  class CollectSink final : public Sink {
   public:
    bool deliver(const Event& event) override {
      events.push_back(event);
      return true;
    }
    std::vector<Event> events;
  };

  CollectSink sink;
  WriterConfig wconfig;
  wconfig.threaded = false;
  BufferedWriter writer(sink, wconfig);
  std::vector<TenantSpec> tenants;
  tenants.push_back({"solo", 1, 0, 0, 8});
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), base_config(),
                 &writer);
  for (const auto& r : feed) sup.ingest(0, r);
  sup.finish();
  writer.close();

  ASSERT_FALSE(sink.events.empty());
  for (std::size_t i = 0; i < sink.events.size(); ++i) {
    EXPECT_EQ(sink.events[i].seq, i);
    EXPECT_EQ(sink.events[i].tenant, "solo");
  }
  EXPECT_EQ(sup.book(0).event_seq, sink.events.size());
  EXPECT_EQ(sink.events.size(),
            sup.monitor(0, 0).alerts() + sup.monitor(0, 0).incidents());
}

TEST(Supervisor, StatusReportAddsUp) {
  const auto feed = burst_feed();
  std::vector<TenantSpec> tenants;
  tenants.push_back({"acme", 1, 100, 0, 4});
  Supervisor sup(sim_cloud_space(), nullptr, std::move(tenants), base_config());
  for (const auto& r : feed) sup.ingest(0, r);
  sup.finish();
  const std::string report = sup.status_report();
  EXPECT_NE(report.find("acme"), std::string::npos);
  EXPECT_NE(report.find("records routed: " + std::to_string(feed.size())),
            std::string::npos);
  EXPECT_NE(report.find(std::to_string(sup.book(0).shed)), std::string::npos);
}

TEST(Supervisor, RecoverFallsBackPastAnUndecodableBook) {
  // A generation whose supervisor.dmsv frames cleanly (magic, version,
  // size and CRC all intact) but whose payload does not decode must be
  // rejected by the book decoder itself: recover() adopts the generation
  // before it and ledgers the bad one as kUndecodable. The bad generation
  // is committed through CheckpointRotator::rotate, so its MANIFEST is
  // consistent and only the decoder can object.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "dm_supervisor_undecodable_book";
  fs::remove_all(dir);
  ServeConfig config = base_config();
  config.state_dir = dir.string();
  const auto tenants = [] {
    std::vector<TenantSpec> specs;
    specs.push_back({"solo", 1, 0, 0, 8});
    return specs;
  };
  const auto feed = burst_feed();
  const std::size_t prefix = feed.size() / 2;

  std::int64_t good = -1;
  std::vector<ShardFile> files;
  {
    Supervisor sup(sim_cloud_space(), nullptr, tenants(), config);
    for (std::size_t i = 0; i < prefix; ++i) sup.ingest(0, feed[i]);
    good = sup.rotate_now();
    ASSERT_GE(good, 0);
    files = sup.snapshot_files();
  }
  ASSERT_EQ(files[0].name, "supervisor.dmsv");
  // The book's own magic and version, then a CRC-valid payload that ends
  // inside its second varint.
  std::vector<std::uint8_t> book(
      files[0].bytes.begin(),
      files[0].bytes.begin() + netflow::kFrameHeaderBytes);
  netflow::put_frame_body(book, std::vector<std::uint8_t>{0x05, 0x80});
  files[0].bytes = std::move(book);
  std::int64_t bad = -1;
  {
    CheckpointRotator rotator(dir.string(), config.keep_generations);
    bad = rotator.rotate(std::move(files));
  }
  ASSERT_GT(bad, good);

  Supervisor resumed(sim_cloud_space(), nullptr, tenants(), config);
  const RecoveryReport report = resumed.recover();
  EXPECT_EQ(report.generation, good);
  EXPECT_EQ(report.resume_index, prefix);
  EXPECT_EQ(resumed.book(0).offered, prefix);
  bool saw_undecodable = false;
  for (const DamageEntry& entry : report.ledger) {
    if (entry.kind != DamageKind::kUndecodable) continue;
    saw_undecodable = true;
    EXPECT_EQ(entry.generation, bad);
    EXPECT_NE(entry.detail.find("book: "), std::string::npos) << entry.detail;
  }
  EXPECT_TRUE(saw_undecodable);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dm::serve
