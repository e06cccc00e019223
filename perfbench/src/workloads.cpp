#include "workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <tuple>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "detect/pipeline.h"
#include "detect/stream.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "netflow/trace_io.h"
#include "netflow/window_aggregator.h"
#include "serve/supervisor.h"
#include "sim/trace_generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dm::netflow::FlowRecord;
using dm::util::Minute;

// The feed of `dmnf gen --vips 500 --days 7`: about 5.9 M records over
// 10,080 minutes. Timed passes then last seconds, not the ~1 s whose
// run-to-run spread cache and memory neighbours dominate.
constexpr std::uint32_t kFeedVips = 500;
constexpr int kFeedDays = 7;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// serve-fleet: 2 tenants x 2 VIP shards and a reordered feed with a
// 2-minute reorder lag. A record moves at most 32 positions, far fewer than
// one minute's ~500 records, so none is late. Checkpoints rotate every 6
// feed hours, 27 fsync'd commits a pass. Hourly rotation (167 commits) put
// the host's fsync latency into a tenth of the pass and into every minute
// beyond the p99: over ten runs their spread between quartiles reached 0.29
// and 0.59 of the median.
constexpr std::uint32_t kTenants = 2;
constexpr std::uint32_t kShardsPerTenant = 2;
constexpr Minute kRotationMinutes = 360;
constexpr Minute kServeReorderLag = 2;
constexpr std::size_t kServeReorderWindow = 32;

enum class Kind { kBatch, kStream, kServe };

Kind kind_of(const std::string& name) {
  if (name == "batch-detect") return Kind::kBatch;
  if (name == "stream-replay") return Kind::kStream;
  if (name == "serve-fleet") return Kind::kServe;
  throw std::invalid_argument("unknown workload: " + name);
}

/// The incident fields each workload must reproduce exactly.
unsigned oracle_fields(Kind kind) {
  switch (kind) {
    case Kind::kBatch: return kAllFields;
    case Kind::kStream: return kAllButRampUp;
    case Kind::kServe: return kEventFields;
  }
  return kAllFields;
}

/// Pool workers that keep at most nproc threads runnable: the workers plus
/// the calling thread, which runs queued tasks while it waits on them.
unsigned pool_workers() {
  const unsigned threads = dm::exec::ThreadPool::hardware_threads();
  return threads > 1 ? threads - 1 : 0;
}

double seconds_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

// ------------------------------------------------------------------ feed

/// Everything set-up hands the timed phase: the scenario's static world
/// (cloud address space, TDS blacklist) and the encoded feed.
struct Feed {
  std::unique_ptr<dm::sim::Scenario> scenario;
  std::vector<std::uint8_t> bytes;  ///< the .dmnf encoding
  std::uint64_t records = 0;
  std::uint64_t minutes = 0;         ///< distinct feed minutes
  std::uint64_t unattributable = 0;  ///< generated records left out of the feed

  [[nodiscard]] const dm::netflow::PrefixSet& cloud() const {
    return scenario->vips().cloud_space();
  }
  [[nodiscard]] const dm::netflow::PrefixSet& blacklist() const {
    return scenario->tds().as_prefix_set();
  }
};

// The generator's feed size and burst shape are heavy-tailed in the seed:
// over scenario seeds 1-40 the record count spans 5.0-9.3 M and the busiest
// minutes (the per-minute p99) 1.5-7.3 k records. The online monitors' cost
// per record also grows with the attack keys they have detected so far.
// Left alone, that would swamp any run-to-run comparison of memory,
// throughput and minute latency. --seed therefore picks one of the scenario
// seeds below. Stage one kept the seeds among 1-1000 whose record count,
// median minute, p99 minute and detected (vip, type, direction) keys all lie
// near the medians of the 1000; stage two kept those whose modelled monitor
// cost (key scans per record, and per-minute p50 and p99 of records times
// keys) lies near the medians of stage one's. Regenerate with
// `perfbench --panel 1 1000` (about 20 minutes on 4 threads).
constexpr std::uint64_t kPanel[] = {343, 426, 515, 575, 699, 824, 913, 939, 944};
constexpr double kPanelRecordsBand = 0.04;
constexpr double kPanelMedianMinuteBand = 0.05;
constexpr double kPanelP99MinuteBand = 0.08;
constexpr double kPanelKeysBand = 0.06;
constexpr double kPanelScansBand = 0.04;
constexpr double kPanelCostP50Band = 0.08;
constexpr double kPanelCostP99Band = 0.06;

std::uint64_t scenario_seed(std::uint64_t seed) {
  return kPanel[seed % std::size(kPanel)];
}

dm::sim::ScenarioConfig scenario_config(std::uint64_t scenario_seed) {
  dm::sim::ScenarioConfig config = dm::sim::ScenarioConfig::smoke();
  config.vips.vip_count = kFeedVips;
  config.days = kFeedDays;
  config.seed = scenario_seed;
  return config;
}

/// What the feed process reports besides the feed file itself.
struct FeedReport {
  std::uint64_t records = 0;
  std::uint64_t minutes = 0;         ///< distinct feed minutes
  std::uint64_t unattributable = 0;  ///< generated records left out
  std::int64_t generate_ns = 0;
  std::int64_t filter_ns = 0;
  std::int64_t order_ns = 0;
  std::int64_t degrade_ns = 0;
  std::int64_t encode_ns = 0;
};

/// Synthesizes the workload's feed and writes its .dmnf encoding to `path`.
FeedReport synthesize(Kind kind, std::uint64_t seed, const std::string& path) {
  dm::exec::ThreadPool pool(pool_workers());
  const dm::sim::ScenarioConfig config = scenario_config(scenario_seed(seed));
  const dm::sim::Scenario scenario(config);
  FeedReport report;
  std::int64_t mark = now_ns();
  const auto lap = [&mark](std::int64_t& elapsed) {
    const std::int64_t now = now_ns();
    elapsed = now - mark;
    mark = now;
  };
  std::vector<FlowRecord> records = dm::sim::generate_trace(scenario, &pool).records;
  lap(report.generate_ns);
  // Only records the cloud's address space attributes to a VIP: the few
  // transit and intra-cloud ones would count as failed operations.
  report.unattributable = std::erase_if(records, [&](const FlowRecord& r) {
    return !dm::netflow::classify(r, scenario.vips().cloud_space()).has_value();
  });
  lap(report.filter_ns);
  if (kind != Kind::kBatch) {
    // A collector feed arrives in time order. Stable, so records keep the
    // generator's order within a minute, as dmnf's --stream and serve
    // replays order them.
    std::stable_sort(records.begin(), records.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.minute < b.minute;
                     });
  }
  lap(report.order_ns);
  if (kind == Kind::kServe) {
    dm::fault::RecordPlan plan;
    plan.reorder_window = kServeReorderWindow;
    records = dm::fault::FaultInjector(seed).degrade(records, plan);
  }
  lap(report.degrade_ns);
  report.records = records.size();
  std::vector<char> seen(static_cast<std::size_t>(config.total_minutes()), 0);
  for (const FlowRecord& r : records) seen.at(static_cast<std::size_t>(r.minute)) = 1;
  report.minutes = static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 1));
  mark = now_ns();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  dm::netflow::TraceWriter writer(out, config.sampling);
  writer.write_all(records);
  writer.finish();
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  lap(report.encode_ns);
  return report;
}

/// Runs the feed process (this program with --feed-out) and waits for it.
void run_feed_process(const Options& options, const std::string& path) {
  std::vector<std::string> args = {
      "perfbench", "--workload", options.workload,
      "--seed",    std::to_string(options.seed),
      "--work-dir", options.work_dir,
      "--feed-out", path};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
    throw std::runtime_error("cannot start the feed process");
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("lost the feed process");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the feed process failed");
  }
}

/// Set-up's feed: synthesized in a process of its own, so the generator's
/// memory never enters this one's resident set, then read into memory.
Feed make_feed(const Options& options, Tracer& tracer, int parent) {
  Feed feed;
  {
    const Scope span(tracer, "sim.scenario", parent);
    feed.scenario = std::make_unique<dm::sim::Scenario>(
        scenario_config(scenario_seed(options.seed)));
  }
  const std::string path =
      options.work_dir + "/feed-" + std::to_string(getpid()) + ".dmnf";
  const std::int64_t start = now_ns();
  run_feed_process(options, path);
  const std::int64_t end = now_ns();
  FeedReport report;
  {
    std::ifstream in(path + ".txt");
    in >> report.records >> report.minutes >> report.unattributable >>
        report.generate_ns >> report.filter_ns >> report.order_ns >>
        report.degrade_ns >> report.encode_ns;
    if (!in) throw std::runtime_error("unreadable feed report " + path + ".txt");
  }
  if (tracer.enabled()) {
    const int process = tracer.add("bench.feed", start, end, parent, end - start);
    tracer.add("sim.generate", start, end, process, report.generate_ns);
    tracer.add("bench.filter", start, end, process, report.filter_ns);
    tracer.add("bench.order", start, end, process, report.order_ns);
    tracer.add("fault.degrade", start, end, process, report.degrade_ns);
    tracer.add("netflow.encode", start, end, process, report.encode_ns);
  }
  {
    const Scope span(tracer, "bench.load", parent);
    std::ifstream in(path, std::ios::binary);
    feed.bytes.resize(static_cast<std::size_t>(fs::file_size(path)));
    in.read(reinterpret_cast<char*>(feed.bytes.data()),
            static_cast<std::streamsize>(feed.bytes.size()));
    if (!in) throw std::runtime_error("cannot read " + path);
  }
  fs::remove(path);
  fs::remove(path + ".txt");
  feed.records = report.records;
  feed.minutes = report.minutes;
  feed.unattributable = report.unattributable;
  return feed;
}

// -------------------------------------------------------------- systems

/// The online monitor as `dmnf detect --stream` runs it: reorder lag 0 and
/// no duplicate suppression (identical records in a stored feed are
/// distinct sampled flows). Incidents are delivered to a vector.
struct StreamSystem {
  explicit StreamSystem(const Feed& feed)
      : monitor(feed.cloud(), &feed.blacklist(), {},
                dm::detect::TimeoutTable::paper(), nullptr,
                [this](const dm::detect::AttackIncident& incident) {
                  incidents.push_back(incident);
                },
                dm::detect::StreamConfig{}) {}
  StreamSystem(const StreamSystem&) = delete;
  StreamSystem& operator=(const StreamSystem&) = delete;

  std::vector<dm::detect::AttackIncident> incidents;
  dm::detect::StreamMonitor monitor;
};

std::vector<dm::serve::TenantSpec> serve_tenants() {
  std::vector<dm::serve::TenantSpec> tenants(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    tenants[t].name = "tenant-" + std::to_string(t);
    tenants[t].shards = kShardsPerTenant;
  }
  return tenants;
}

dm::serve::ServeConfig serve_config(const std::string& state_dir,
                                    std::uint64_t seed) {
  dm::serve::ServeConfig config;
  config.seed = seed;
  config.rotation_interval = kRotationMinutes;
  config.state_dir = state_dir;
  config.stream.reorder_lag = kServeReorderLag;
  return config;
}

dm::serve::WriterConfig writer_config(std::uint64_t seed) {
  dm::serve::WriterConfig config;
  config.seed = seed;
  return config;
}

/// The supervised service as `dmnf serve` runs it, with events going
/// through a threaded BufferedWriter into a BinarySink over memory.
struct ServeSystem {
  ServeSystem(const Feed& feed, const std::string& state_dir,
              std::uint64_t seed, dm::exec::ThreadPool& pool)
      : writer(sink, writer_config(seed)),
        supervisor(feed.cloud(), &feed.blacklist(), serve_tenants(),
                   serve_config(state_dir, seed), &writer, &pool) {}
  ServeSystem(const ServeSystem&) = delete;
  ServeSystem& operator=(const ServeSystem&) = delete;

  std::vector<std::uint8_t> delivered;  ///< the sink's bytes
  ByteSink buffer{delivered};
  std::ostream stream{&buffer};
  dm::serve::BinarySink sink{stream};
  dm::serve::BufferedWriter writer;
  dm::serve::Supervisor supervisor;
};

/// The system under test of one pass; batch-detect's pipeline is
/// stateless, so only the online workloads hold one.
struct System {
  std::unique_ptr<StreamSystem> stream;
  std::unique_ptr<ServeSystem> serve;
};

/// Builds a fresh system: serve-fleet starts from an empty state
/// directory and recovers from it, as `dmnf serve` does on start-up.
void build_system(Kind kind, const Feed& feed, const std::string& state_dir,
                  std::uint64_t seed, dm::exec::ThreadPool& pool,
                  Tracer& tracer, int parent, System& system) {
  system = System{};
  if (kind == Kind::kStream) {
    system.stream = std::make_unique<StreamSystem>(feed);
  } else if (kind == Kind::kServe) {
    fs::remove_all(state_dir);
    system.serve = std::make_unique<ServeSystem>(feed, state_dir, seed, pool);
    const Scope span(tracer, "serve.recover", parent);
    const dm::serve::RecoveryReport report = system.serve->supervisor.recover();
    if (report.generation != -1 || !report.ledger.empty()) {
      throw std::runtime_error("serve state directory was not empty: " + state_dir);
    }
  }
}

// ---------------------------------------------------------------- passes

/// What one timed pass produced, read after its clock stopped.
struct Counters {
  std::uint64_t offered = 0;   ///< records decoded and handed to the system
  std::uint64_t accepted = 0;  ///< records some window counted
  std::uint64_t ingested = 0;  ///< StreamMonitor::records_ingested (summed)
  std::uint64_t dropped = 0;   ///< unattributable (batch) or records_dropped()
  std::uint64_t late = 0;
  std::uint64_t admitted = 0;  ///< serve admission books, summed over tenants
  std::uint64_t shed = 0;
  std::uint64_t emitted = 0;   ///< events the supervisor emitted
  std::uint64_t windows = 0;   ///< windows built (batch) or closed (online)
  std::uint64_t alerts = 0;    ///< flagged minutes
  std::uint64_t incidents = 0; ///< incidents the detector reports
  std::uint64_t series = 0;
  std::uint64_t encoded_bytes = 0;  ///< batch: the windowed record store
  std::uint64_t state_bytes_peak = 0;
  dm::serve::WriterStats writer;
  std::int64_t rotations = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t routed = 0;
  std::int64_t rotate_wait_ns = 0;  ///< traced: rotation wall minus main-thread CPU
};

struct Pass {
  double seconds = 0;
  std::vector<double> minute_ms;       ///< online workloads only
  std::vector<IncidentRow> incidents;  ///< as delivered, oracle-projected
  std::vector<Ledger> ledgers;         ///< identities that need no oracle
  Counters counters;
};

Pass batch_pass(const Feed& feed, dm::exec::ThreadPool& pool, Tracer& tracer,
                int parent) {
  const dm::detect::DetectionPipeline pipeline;
  Pass pass;
  const int span = tracer.begin("bench.pass", parent);
  const std::int64_t start = now_ns();
  std::vector<FlowRecord> records;
  {
    const Scope decode(tracer, "netflow.decode", span);
    ByteSource source(feed.bytes);
    std::istream in(&source);
    dm::netflow::TraceReader reader(in);
    records = reader.read_all();
  }
  const std::uint64_t offered = records.size();
  dm::netflow::WindowedTrace windowed;
  {
    const Scope aggregate(tracer, "netflow.aggregate", span);
    windowed = dm::netflow::aggregate_windows(std::move(records), feed.cloud(),
                                              &feed.blacklist(), &pool);
  }
  dm::detect::DetectionResult result;
  if (tracer.enabled()) {
    // DetectionPipeline::run is exactly these two calls.
    {
      const Scope minutes(tracer, "detect.minutes", span);
      result.minutes = pipeline.detect_minutes(windowed, &pool);
    }
    const Scope incidents(tracer, "detect.incidents", span);
    result.incidents =
        dm::detect::build_incidents(result.minutes, pipeline.timeouts());
  } else {
    result = pipeline.run(windowed, &pool);
  }
  pass.seconds = seconds_between(start, now_ns());
  tracer.end(span);

  Counters& c = pass.counters;
  c.offered = offered;
  c.accepted = windowed.record_count();
  c.dropped = windowed.unclassified_records();
  c.windows = windowed.windows().size();
  c.alerts = result.minutes.size();
  c.incidents = result.incidents.size();
  c.encoded_bytes = windowed.store().encoded_bytes();
  for (const auto& incident : result.incidents) {
    pass.incidents.push_back(project(incident, oracle_fields(Kind::kBatch)));
  }
  pass.ledgers.push_back({"offered = windowed + unattributable records",
                          c.offered, {c.accepted, c.dropped}});
  return pass;
}

/// Replays the encoded feed record by record through `ingest(record,
/// advances)`, which returns true for a call that did boundary work (a
/// minute close or a checkpoint rotation). Appends one sample per feed
/// minute to `minute_ms`: a minute runs from the record that advances the
/// newest minute seen to the next such record. Untraced, that is the only
/// clock read: one per feed minute, none per record. Traced, every call is
/// timed and folded into one span per feed minute per layer, and
/// `on_minute` samples gauges at each minute. Returns the records decoded.
template <typename Ingest, typename OnMinute>
std::uint64_t replay(const Feed& feed, Ingest&& ingest, OnMinute&& on_minute,
                     const char* ingest_name, const char* boundary_name,
                     Tracer& tracer, int parent, std::vector<double>& minute_ms) {
  FlowRecord record;
  Minute newest = std::numeric_limits<Minute>::min();
  std::int64_t tick = -1;
  std::uint64_t count = 0;
  const auto sample = [&](std::int64_t now) {
    if (tick >= 0) minute_ms.push_back(static_cast<double>(now - tick) / 1e6);
    tick = now;
  };

  if (!tracer.enabled()) {
    ByteSource source(feed.bytes);
    std::istream in(&source);
    dm::netflow::TraceReader reader(in);
    while (reader.next(record)) {
      ++count;
      const bool advances = record.minute > newest;
      if (advances) {
        newest = record.minute;
        sample(now_ns());
      }
      ingest(record, advances);
    }
    return count;
  }

  const std::int64_t begin = now_ns();
  ByteSource source(feed.bytes);
  std::istream in(&source);
  dm::netflow::TraceReader reader(in);
  std::int64_t minute_start = begin;
  std::int64_t decode_busy = now_ns() - begin;
  std::int64_t ingest_busy = 0;
  std::int64_t boundary_start = 0;
  std::int64_t boundary_end = 0;
  std::int64_t boundary_busy = 0;
  const auto flush = [&](std::int64_t at) {
    const int minute =
        tracer.add("bench.minute", minute_start, at, parent, at - minute_start);
    tracer.add("netflow.decode", minute_start, at, minute, decode_busy);
    tracer.add(ingest_name, minute_start, at, minute, ingest_busy);
    if (boundary_busy > 0) {
      tracer.add(boundary_name, boundary_start, boundary_end, minute,
                 boundary_busy);
    }
    minute_start = at;
    decode_busy = ingest_busy = boundary_busy = 0;
  };
  for (;;) {
    const std::int64_t t0 = now_ns();
    const bool more = reader.next(record);
    const std::int64_t t1 = now_ns();
    decode_busy += t1 - t0;
    if (!more) break;
    ++count;
    const bool advances = record.minute > newest;
    if (advances) {
      newest = record.minute;
      sample(t1);
      flush(t1);
      on_minute();
    }
    const std::int64_t t2 = now_ns();
    const bool boundary = ingest(record, advances);
    const std::int64_t t3 = now_ns();
    if (boundary) {
      if (boundary_busy == 0) boundary_start = t2;
      boundary_end = t3;
      boundary_busy += t3 - t2;
    } else {
      ingest_busy += t3 - t2;
    }
  }
  flush(now_ns());
  return count;
}

Pass stream_pass(const Feed& feed, StreamSystem& system, Tracer& tracer,
                 int parent) {
  dm::detect::StreamMonitor& monitor = system.monitor;
  Pass pass;
  Counters& c = pass.counters;
  const int span = tracer.begin("bench.pass", parent);
  const std::int64_t start = now_ns();
  c.offered = replay(
      feed,
      [&](const FlowRecord& record, bool advances) {
        monitor.ingest(record);
        return advances;  // the call that advances the newest minute closes the ones before
      },
      [&] {
        c.state_bytes_peak = std::max(c.state_bytes_peak, monitor.approx_state_bytes());
      },
      "detect.ingest", "detect.close", tracer, span, pass.minute_ms);
  {
    const Scope finish(tracer, "detect.finish", span);
    monitor.finish();
  }
  pass.seconds = seconds_between(start, now_ns());
  tracer.end(span);

  c.ingested = monitor.records_ingested();
  c.dropped = monitor.records_dropped();
  c.late = monitor.records_late();
  c.accepted = c.ingested - c.dropped;
  c.windows = monitor.windows_closed();
  c.alerts = monitor.alerts();
  c.incidents = monitor.incidents();
  c.series = monitor.series_count();
  for (const auto& incident : system.incidents) {
    pass.incidents.push_back(project(incident, oracle_fields(Kind::kStream)));
  }
  pass.ledgers.push_back({"offered = records_ingested", c.offered, {c.ingested}});
  pass.ledgers.push_back({"incidents delivered = incidents()", c.incidents,
                          {system.incidents.size()}});
  return pass;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

Pass serve_pass(const Feed& feed, ServeSystem& system,
                const std::string& state_dir, Tracer& tracer, int parent) {
  dm::serve::Supervisor& supervisor = system.supervisor;
  Pass pass;
  Counters& c = pass.counters;
  std::int64_t rotate_wait_ns = 0;
  const int span = tracer.begin("bench.pass", parent);
  const std::int64_t start = now_ns();
  c.offered = replay(
      feed,
      [&](const FlowRecord& record, bool advances) {
        // Rotation happens only on a record that opens a new feed minute.
        if (!advances) {
          supervisor.ingest_routed(record);
          return false;
        }
        const std::int64_t generation = supervisor.last_generation();
        const std::int64_t wall = tracer.enabled() ? now_ns() : 0;
        const std::int64_t cpu = tracer.enabled() ? thread_cpu_ns() : 0;
        supervisor.ingest_routed(record);
        if (supervisor.last_generation() == generation) return false;
        if (tracer.enabled()) {
          rotate_wait_ns += (now_ns() - wall) - (thread_cpu_ns() - cpu);
        }
        return true;
      },
      [&] {
        for (std::size_t t = 0; t < supervisor.tenant_count(); ++t) {
          for (std::uint32_t s = 0; s < kShardsPerTenant; ++s) {
            c.state_bytes_peak = std::max(
                c.state_bytes_peak, supervisor.monitor(t, s).approx_state_bytes());
          }
        }
      },
      "serve.ingest", "serve.rotate", tracer, span, pass.minute_ms);
  {
    const Scope finish(tracer, "serve.finish", span);
    supervisor.finish();
    system.writer.close();
  }
  pass.seconds = seconds_between(start, now_ns());
  tracer.end(span);
  c.rotate_wait_ns = rotate_wait_ns;

  std::uint64_t offered = 0;
  for (std::size_t t = 0; t < supervisor.tenant_count(); ++t) {
    const dm::serve::TenantBook& book = supervisor.book(t);
    offered += book.offered;
    c.admitted += book.admitted;
    c.shed += book.shed;
    c.emitted += book.event_seq;
    pass.ledgers.push_back({supervisor.spec(t).name + " offered = admitted + shed",
                            book.offered, {book.admitted, book.shed}});
    for (std::uint32_t s = 0; s < supervisor.spec(t).shards; ++s) {
      const dm::detect::StreamMonitor& monitor = supervisor.monitor(t, s);
      c.ingested += monitor.records_ingested();
      c.dropped += monitor.records_dropped();
      c.late += monitor.records_late();
      c.windows += monitor.windows_closed();
      c.alerts += monitor.alerts();
      c.incidents += monitor.incidents();
      c.series += monitor.series_count();
    }
  }
  c.accepted = c.ingested - c.dropped;
  c.writer = system.writer.stats();
  c.routed = supervisor.records_routed();
  c.rotations = supervisor.last_generation() + 1;
  if (supervisor.last_generation() >= 0) {
    c.checkpoint_bytes = directory_bytes(
        fs::path(state_dir) / ("gen-" + std::to_string(supervisor.last_generation())));
  }
  const std::vector<dm::serve::Event> events =
      dm::serve::decode_events(system.delivered);
  for (const dm::serve::Event& event : events) {
    if (event.kind == dm::serve::Event::Kind::kIncident) {
      pass.incidents.push_back(project(event));
    }
  }
  const dm::serve::WriterStats& w = c.writer;
  pass.ledgers.push_back({"records offered = routed", c.offered, {c.routed}});
  pass.ledgers.push_back({"records offered = tenant offered", c.offered, {offered}});
  pass.ledgers.push_back({"tenant offered = admitted + shed", offered, {c.admitted, c.shed}});
  pass.ledgers.push_back({"admitted = records_ingested", c.admitted, {c.ingested}});
  pass.ledgers.push_back({"writer enqueued = delivered + dropped + spilled",
                          w.enqueued, {w.delivered, w.dropped, w.spilled}});
  pass.ledgers.push_back({"events emitted = writer enqueued", c.emitted, {w.enqueued}});
  pass.ledgers.push_back({"writer delivered = events decoded", w.delivered, {events.size()}});
  pass.ledgers.push_back({"records_late = 0", 0, {c.late}});
  return pass;
}

// ---------------------------------------------------------------- oracle

/// The fused generate->aggregate path (sim::generate_windows) plus batch
/// detection: independent of decode -> aggregate_windows and of both
/// online monitors.
struct Oracle {
  std::uint64_t windowed = 0;  ///< records some window counted
  std::uint64_t windows = 0;
  std::vector<dm::detect::AttackIncident> incidents;
};

Oracle make_oracle(const Feed& feed, dm::exec::ThreadPool& pool, Tracer& tracer,
                   int parent) {
  Oracle oracle;
  const int generate = tracer.begin("sim.windows", parent);
  const dm::sim::FusedTrace fused = dm::sim::generate_windows(*feed.scenario, &pool);
  tracer.end(generate);
  const Scope detect(tracer, "detect.run", parent);
  oracle.windowed = fused.windowed.record_count();
  oracle.windows = fused.windowed.windows().size();
  oracle.incidents = dm::detect::DetectionPipeline{}.run(fused.windowed, &pool).incidents;
  return oracle;
}

/// "" when the pass matches the oracle and every ledger balances, else the
/// first failure.
std::string check(Kind kind, const Pass& pass, const Oracle& oracle) {
  const Counters& c = pass.counters;
  std::vector<Ledger> ledgers = pass.ledgers;
  ledgers.push_back({"offered = oracle's windowed records", oracle.windowed, {c.offered}});
  ledgers.push_back({"windows = oracle's windows", oracle.windows, {c.windows}});
  if (kind == Kind::kBatch) {
    ledgers.push_back({"windowed records = oracle's", oracle.windowed, {c.accepted}});
  } else {
    // accepted: the records the oracle's windows counted.
    ledgers.push_back({"records_ingested = accepted + records_dropped()",
                       c.ingested, {oracle.windowed, c.dropped}});
  }
  if (std::string error = unbalanced(ledgers); !error.empty()) return error;
  std::vector<IncidentRow> want;
  for (const auto& incident : oracle.incidents) {
    want.push_back(project(incident, oracle_fields(kind)));
  }
  return compare_incidents(pass.incidents, std::move(want));
}

// --------------------------------------------------------------- metrics

std::vector<Metric> end_to_end(Kind kind, const Feed& feed,
                               const std::vector<Pass>& passes,
                               const std::vector<double>& setup_s,
                               double peak_mib) {
  std::vector<double> rates;
  std::vector<double> minute_ms;
  for (const Pass& pass : passes) {
    rates.push_back(static_cast<double>(feed.records) / pass.seconds);
    if (kind == Kind::kBatch) {
      // A batch absorbs every minute in one pass and reads no clock per
      // minute: each minute costs the pass time spread over the feed, and
      // the percentile reports the median pass.
      minute_ms.push_back(pass.seconds * 1e3 / static_cast<double>(feed.minutes));
    } else {
      minute_ms.insert(minute_ms.end(), pass.minute_ms.begin(), pass.minute_ms.end());
    }
  }
  if (kind != Kind::kBatch) {
    const std::size_t n = minute_ms.size();
    const double top = highest_supported_percentile(n);
    std::printf("minute samples: %zu; p50 %.4f ms, p99 %.4f ms (%zu beyond), "
                "p%g %.4f ms (the highest percentile with ten beyond)\n",
                n, percentile(minute_ms, 50), percentile(minute_ms, 99),
                samples_beyond(n, 99), top, percentile(minute_ms, top));
  }
  return {
      {"records_per_s", median(rates), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", peak_mib, "MiB"},
      {"minute_p99_ms", percentile(minute_ms, kind == Kind::kBatch ? 50 : 99), "ms"},
  };
}

std::vector<Metric> per_layer(Kind kind, const Feed& feed,
                              const std::vector<Pass>& passes, const Tracer& tracer,
                              int timed) {
  const std::vector<Span>& spans = tracer.spans();
  const double n = static_cast<double>(passes.size());
  const auto mean_s = [&](const char* name, int root) {
    const SpanTotal total = total_of(spans, name, root);
    return total.count == 0 ? 0.0
                            : static_cast<double>(total.busy_ns) / 1e9 /
                                  static_cast<double>(total.count);
  };
  // Timed-phase calls: seconds per pass.
  const auto per_pass = [&](const char* name) {
    return static_cast<double>(total_of(spans, name, timed).busy_ns) / 1e9 / n;
  };
  const Counters& c = passes.back().counters;
  std::int64_t rotate_wait_ns = 0;
  std::vector<double> rates;
  for (const Pass& pass : passes) {
    rotate_wait_ns += pass.counters.rotate_wait_ns;
    rates.push_back(static_cast<double>(feed.records) / pass.seconds);
  }
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  const auto count = [](auto v) { return static_cast<double>(v); };
  const std::map<std::string, std::int64_t> self = layer_self_times(spans, "bench.pass");
  const auto self_s = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e9 / n;
  };
  return {
      {"sim.generate_s", mean_s("sim.generate", -1), "s"},
      {"netflow.encode_s", mean_s("netflow.encode", -1), "s"},
      {"netflow.decode_s", per_pass("netflow.decode"), "s"},
      {"netflow.aggregate_s", per_pass("netflow.aggregate"), "s"},
      {"netflow.bytes_per_record", ratio(c.encoded_bytes, c.accepted), "B"},
      {"netflow.windows", count(kind == Kind::kBatch ? c.windows : 0), "count"},
      {"netflow.kept_ratio", ratio(c.accepted, c.offered), "ratio"},
      {"detect.minutes_s", per_pass("detect.minutes"), "s"},
      {"detect.incidents_s", per_pass("detect.incidents"), "s"},
      {"detect.ingest_s", per_pass("detect.ingest") + per_pass("detect.close"), "s"},
      {"detect.close_s", per_pass("detect.close"), "s"},
      {"detect.finish_s", per_pass("detect.finish"), "s"},
      {"detect.state_bytes_peak", count(kind == Kind::kStream ? c.state_bytes_peak : 0), "B"},
      {"detect.series", count(c.series), "count"},
      {"detect.windows_closed", count(kind == Kind::kBatch ? 0 : c.windows), "count"},
      {"detect.alerts", count(c.alerts), "count"},
      {"detect.incidents", count(c.incidents), "count"},
      {"detect.dropped", count(c.dropped), "count"},
      {"serve.recover_s", mean_s("serve.recover", -1), "s"},
      {"serve.ingest_s", per_pass("serve.ingest"), "s"},
      {"serve.rotate_s", per_pass("serve.rotate"), "s"},
      {"serve.rotate_wait_s", static_cast<double>(rotate_wait_ns) / 1e9 / n, "s"},
      {"serve.rotations", count(c.rotations), "count"},
      {"serve.checkpoint_bytes", count(c.checkpoint_bytes), "B"},
      {"serve.finish_s", per_pass("serve.finish"), "s"},
      {"serve.admit_ratio", ratio(c.admitted, c.routed), "ratio"},
      {"serve.events", count(c.writer.enqueued), "count"},
      {"serve.writer_retries", count(c.writer.retries), "count"},
      {"serve.writer_dropped", count(c.writer.dropped), "count"},
      {"serve.state_bytes_peak", count(kind == Kind::kServe ? c.state_bytes_peak : 0), "B"},
      {"bench.timed_s", per_pass("bench.pass"), "s"},
      {"bench.self_s", self_s("bench"), "s"},
      {"netflow.self_s", self_s("netflow"), "s"},
      {"detect.self_s", self_s("detect"), "s"},
      {"serve.self_s", self_s("serve"), "s"},
      {"trace.records_per_s", median(rates), "1/s"},
  };
}

}  // namespace

RunResult run_workload(const Options& options) {
  const Kind kind = kind_of(options.workload);
  dm::exec::ThreadPool pool(pool_workers());
  Tracer tracer(options.trace);
  fs::create_directories(options.work_dir);
  const std::string state_dir = options.work_dir + "/serve-state";
  std::printf("workload %s, seed %llu, feed %u VIPs x %d days, %u threads\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), kFeedVips,
              kFeedDays, pool_workers() + 1);

  const int root = tracer.begin(options.workload.c_str(), -1);
  Feed feed;
  System system;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    system = System{};
    feed = Feed{};
    const int span = tracer.begin("bench.setup", root);
    const std::int64_t start = now_ns();
    feed = make_feed(options, tracer, span);
    build_system(kind, feed, state_dir, options.seed, pool, tracer, span, system);
    setup_s.push_back(seconds_between(start, now_ns()));
    tracer.end(span);
  }
  std::printf("feed: %llu records (%llu unattributable left out), %llu minutes, "
              "%zu bytes; set-up %.3f s (median of %d)\n",
              static_cast<unsigned long long>(feed.records),
              static_cast<unsigned long long>(feed.unattributable),
              static_cast<unsigned long long>(feed.minutes), feed.bytes.size(),
              median(setup_s), kSetups);

  // The generator ran in processes of their own; from here the high-water
  // mark covers the timed phase alone.
  reset_peak_rss();
  std::vector<Pass> passes;
  const int timed = tracer.begin("bench.timed", root);
  const std::int64_t phase_start = now_ns();
  for (;;) {
    if (!passes.empty()) {
      build_system(kind, feed, state_dir, options.seed, pool, tracer, timed, system);
    }
    switch (kind) {
      case Kind::kBatch: passes.push_back(batch_pass(feed, pool, tracer, timed)); break;
      case Kind::kStream: passes.push_back(stream_pass(feed, *system.stream, tracer, timed)); break;
      case Kind::kServe:
        passes.push_back(serve_pass(feed, *system.serve, state_dir, tracer, timed));
        break;
    }
    std::printf("pass %zu: %.3f s, %.0f records/s\n", passes.size(),
                passes.back().seconds,
                static_cast<double>(feed.records) / passes.back().seconds);
    const double elapsed = seconds_between(phase_start, now_ns());
    if (elapsed + passes.back().seconds > options.seconds) break;
  }
  tracer.end(timed);
  const double peak_mib = peak_rss_mib();
  system = System{};
  fs::remove_all(state_dir);

  const int oracle_span = tracer.begin("bench.oracle", root);
  const Oracle oracle = make_oracle(feed, pool, tracer, oracle_span);
  tracer.end(oracle_span);
  tracer.end(root);

  RunResult result;
  result.correct = true;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Counters& c = passes[i].counters;
    result.attempted += c.offered + c.writer.enqueued;
    result.failed += c.dropped + c.shed + c.writer.dropped;
    if (const std::string error = check(kind, passes[i], oracle); !error.empty()) {
      std::printf("CHECK FAILED (pass %zu): %s\n", i + 1, error.c_str());
      result.correct = false;
    }
  }
  std::printf("oracle: %zu incidents, %llu windows; %zu passes checked: %s\n",
              oracle.incidents.size(),
              static_cast<unsigned long long>(oracle.windows), passes.size(),
              result.correct ? "all match" : "MISMATCH");

  if (!options.trace) {
    result.metrics = end_to_end(kind, feed, passes, setup_s, peak_mib);
  } else {
    result.metrics = per_layer(kind, feed, passes, tracer, timed);
    const std::string path = options.work_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    tracer.write(path);
    std::printf("%zu spans written to %s\n", tracer.spans().size(), path.c_str());
  }
  return result;
}

void print_panel(std::uint64_t first, std::uint64_t count) {
  dm::exec::ThreadPool pool(pool_workers());
  struct Row {
    std::uint64_t seed;
    double records, median_minute, p99_minute, keys;
    double scans, cost_p50, cost_p99;  // the monitors' modelled cost
  };
  std::vector<Row> rows;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const dm::sim::ScenarioConfig config = scenario_config(seed);
    const dm::sim::Scenario scenario(config);
    const dm::sim::FusedTrace fused = dm::sim::generate_windows(scenario, &pool);
    std::vector<double> per_minute(static_cast<std::size_t>(config.total_minutes()), 0);
    for (const auto& w : fused.windowed.windows()) {
      per_minute.at(static_cast<std::size_t>(w.minute)) += w.last_record - w.first_record;
    }
    // A monitor keeps every (vip, type, direction) key it has detected and
    // scans them all on each record from the minute after the first
    // detection on: `scans` counts those key visits per record.
    std::map<std::tuple<std::uint32_t, int, int>, Minute> first_detected;
    for (const auto& d :
         dm::detect::DetectionPipeline{}.detect_minutes(fused.windowed, &pool)) {
      const auto [it, fresh] = first_detected.try_emplace(
          {d.vip.value(), static_cast<int>(d.type), static_cast<int>(d.direction)},
          d.minute);
      if (!fresh) it->second = std::min(it->second, d.minute);
    }
    // Per minute: its records times the keys detected before it.
    std::vector<double> keys_from(per_minute.size() + 1, 0);
    for (const auto& [key, minute] : first_detected) {
      keys_from[std::min(static_cast<std::size_t>(minute + 1), per_minute.size())] += 1;
    }
    std::vector<double> cost(per_minute.size());
    double keys = 0;
    for (std::size_t m = 0; m < per_minute.size(); ++m) {
      keys += keys_from[m];
      cost[m] = per_minute[m] * keys;
    }
    const double records = static_cast<double>(fused.windowed.record_count());
    double scans = 0;
    for (const double c : cost) scans += c;
    rows.push_back({seed, records, percentile(per_minute, 50), percentile(per_minute, 99),
                    static_cast<double>(first_detected.size()), scans / records,
                    percentile(cost, 50), percentile(cost, 99)});
    std::printf("scenario seed %llu: %.0f records, median minute %.0f, "
                "p99 minute %.0f, %.0f keys, %.1f key scans per record, "
                "minute cost p50 %.0f p99 %.0f\n",
                static_cast<unsigned long long>(seed), records,
                rows.back().median_minute, rows.back().p99_minute, rows.back().keys,
                rows.back().scans, rows.back().cost_p50, rows.back().cost_p99);
    std::fflush(stdout);
  }
  const auto median_of = [](const std::vector<Row>& of, double Row::*field) {
    std::vector<double> values;
    for (const Row& row : of) values.push_back(row.*field);
    return median(values);
  };
  const auto near = [](double value, double centre, double band) {
    return std::abs(value / centre - 1) <= band;
  };
  // Stage one: feed size and shape near the medians of every candidate.
  const double records = median_of(rows, &Row::records);
  const double median_minute = median_of(rows, &Row::median_minute);
  const double p99_minute = median_of(rows, &Row::p99_minute);
  const double keys = median_of(rows, &Row::keys);
  std::vector<Row> shaped;
  for (const Row& row : rows) {
    if (near(row.records, records, kPanelRecordsBand) &&
        near(row.median_minute, median_minute, kPanelMedianMinuteBand) &&
        near(row.p99_minute, p99_minute, kPanelP99MinuteBand) &&
        near(row.keys, keys, kPanelKeysBand)) {
      shaped.push_back(row);
    }
  }
  // Stage two: the monitors' modelled cost near the medians of stage one's
  // seeds: key scans per record, and the p50 and p99 over minutes of
  // records times keys.
  const double scans = median_of(shaped, &Row::scans);
  const double cost_p50 = median_of(shaped, &Row::cost_p50);
  const double cost_p99 = median_of(shaped, &Row::cost_p99);
  std::printf("medians: %.0f records, median minute %.0f, p99 minute %.0f, "
              "%.0f keys; then %.1f key scans per record, minute cost p50 %.0f "
              "p99 %.0f\npanel:",
              records, median_minute, p99_minute, keys, scans, cost_p50, cost_p99);
  for (const Row& row : shaped) {
    if (near(row.scans, scans, kPanelScansBand) &&
        near(row.cost_p50, cost_p50, kPanelCostP50Band) &&
        near(row.cost_p99, cost_p99, kPanelCostP99Band)) {
      std::printf(" %llu,", static_cast<unsigned long long>(row.seed));
    }
  }
  std::printf("\n");
}

void write_feed(const Options& options) {
  const FeedReport r = synthesize(kind_of(options.workload), options.seed,
                                  options.feed_out);
  std::ofstream out(options.feed_out + ".txt", std::ios::trunc);
  out << r.records << ' ' << r.minutes << ' ' << r.unattributable << ' '
      << r.generate_ns << ' ' << r.filter_ns << ' ' << r.order_ns << ' '
      << r.degrade_ns << ' ' << r.encode_ns << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write " + options.feed_out + ".txt");
}

}  // namespace perfbench
