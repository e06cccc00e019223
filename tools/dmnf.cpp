// dmnf — command-line tool for darkmenace NetFlow traces.
//
//   dmnf gen    --out trace.dmnf [--vips N] [--days D] [--seed S]
//   dmnf info   trace.dmnf
//   dmnf detect trace.dmnf [--cloud CIDR]... [--stream] [--reorder-lag N]
//               [--spill-dir DIR] [--ram-budget BYTES]
//   dmnf top    trace.dmnf [--count N] [--cloud CIDR]...
//   dmnf verify trace.dmnf | segment-dir
//   dmnf export trace.dmnf out.csv
//   dmnf import in.csv out.dmnf [--sampling N]
//
// The default cloud address space is 100.64.0.0/12 (the simulator's).
// `detect --spill-dir` aggregates out-of-core: encoded record chunks spill
// into CRC-framed segment files under DIR and the detectors stream from the
// mmap'd segments (see DESIGN.md §5f). `verify` on a directory runs the
// segment salvage scanner and prints the per-file damage ledger.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "detect/pipeline.h"
#include "detect/stream.h"
#include "exec/thread_pool.h"
#include "serve/supervisor.h"
#include "util/error.h"
#include "netflow/csv.h"
#include "netflow/segment_store.h"
#include "netflow/trace_io.h"
#include "netflow/window_aggregator.h"
#include "sim/trace_generator.h"
#include "util/table.h"

namespace {

using namespace dm;

int usage() {
  std::fputs(
      "usage:\n"
      "  dmnf gen    --out trace.dmnf [--vips N] [--days D] [--seed S]\n"
      "  dmnf info   trace.dmnf\n"
      "  dmnf detect trace.dmnf [--cloud CIDR]... [--stream] [--reorder-lag N]\n"
      "              [--spill-dir DIR] [--ram-budget BYTES]\n"
      "  dmnf top    trace.dmnf [--count N] [--cloud CIDR]...\n"
      "  dmnf verify trace.dmnf | segment-dir\n"
      "  dmnf export trace.dmnf out.csv\n"
      "  dmnf import in.csv out.dmnf [--sampling N]\n"
      "  dmnf serve  trace.dmnf [--state-dir DIR] [--tenants N] [--shards N]\n"
      "              [--rate-budget N] [--memory-budget BYTES] [--shed-k K]\n"
      "              [--rotate-minutes N] [--keep-gens N] [--reorder-lag N]\n"
      "              [--sink human|json|binary|null] [--sink-out PATH]\n"
      "              [--cloud CIDR]... [--seed S]\n",
      stderr);
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (arg == "--stream") {  // boolean flag: takes no value
        args.options[arg] = "1";
        continue;
      }
      const std::string value = i + 1 < argc ? argv[i + 1] : "";
      if (arg == "--cloud") {
        // Repeatable: accumulate with ; separator.
        auto& slot = args.options["--cloud"];
        slot += (slot.empty() ? "" : ";") + value;
      } else {
        args.options[arg] = value;
      }
      ++i;
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

netflow::PrefixSet cloud_space_from(const Args& args) {
  netflow::PrefixSet space;
  const auto it = args.options.find("--cloud");
  if (it == args.options.end()) {
    space.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
    return space;
  }
  std::string rest = it->second;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string cidr = rest.substr(0, semi);
    rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
    const auto prefix = netflow::Prefix::parse(cidr);
    if (!prefix) throw dm::ConfigError("bad --cloud prefix: " + cidr);
    space.add(*prefix);
  }
  return space;
}

long long option_number(const Args& args, const std::string& name,
                        long long fallback) {
  const auto it = args.options.find(name);
  return it == args.options.end() ? fallback : std::atoll(it->second.c_str());
}

int cmd_gen(const Args& args) {
  const auto out = args.options.find("--out");
  if (out == args.options.end()) return usage();
  sim::ScenarioConfig config = sim::ScenarioConfig::smoke();
  config.vips.vip_count =
      static_cast<std::uint32_t>(option_number(args, "--vips", 200));
  config.days = static_cast<int>(option_number(args, "--days", 2));
  config.seed = static_cast<std::uint64_t>(option_number(args, "--seed", 42));
  const sim::Scenario scenario(config);
  const auto result = sim::generate_trace(scenario);
  netflow::write_trace_file(out->second, result.records, config.sampling);
  std::printf("wrote %zu records (%zu ground-truth episodes) to %s\n",
              result.records.size(), result.truth.episodes.size(),
              out->second.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.empty()) return usage();
  std::uint32_t sampling = 0;
  const auto records = netflow::read_trace_file(args.positional[0], &sampling);
  util::Minute lo = 0;
  util::Minute hi = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  if (!records.empty()) {
    lo = hi = records[0].minute;
    for (const auto& r : records) {
      lo = std::min(lo, r.minute);
      hi = std::max(hi, r.minute);
      packets += r.packets;
      bytes += r.bytes;
    }
  }
  std::printf("records:   %zu\n", records.size());
  std::printf("sampling:  1:%u\n", sampling);
  std::printf("window:    %s .. %s\n", util::format_minute(lo).c_str(),
              util::format_minute(hi).c_str());
  std::printf("sampled:   %llu packets, %llu bytes\n",
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(bytes));
  std::printf("estimated: %.3g packets, %.3g bytes (x%u)\n",
              static_cast<double>(packets) * sampling,
              static_cast<double>(bytes) * sampling, sampling);
  return 0;
}

void print_incidents(std::vector<detect::AttackIncident> incidents,
                     std::uint32_t sampling) {
  util::TextTable table;
  table.set_header({"type", "dir", "vip", "start", "duration", "peak"});
  std::sort(incidents.begin(), incidents.end(), [](const auto& a, const auto& b) {
    return std::make_tuple(a.start, a.vip, a.direction, a.type) <
           std::make_tuple(b.start, b.vip, b.direction, b.type);
  });
  for (const auto& inc : incidents) {
    table.row(std::string(sim::to_string(inc.type)),
              std::string(netflow::to_string(inc.direction)),
              inc.vip.to_string(), util::format_minute(inc.start),
              util::format_minutes(static_cast<double>(inc.duration())),
              util::format_pps(inc.estimated_peak_pps(sampling)));
  }
  std::fputs(table.render().c_str(), stdout);
}

int cmd_detect(const Args& args) {
  if (args.positional.empty()) return usage();
  std::uint32_t sampling = 0;
  auto records = netflow::read_trace_file(args.positional[0], &sampling);
  const auto space = cloud_space_from(args);

  if (args.options.count("--stream") != 0) {
    // Online path: replay the trace as a collector feed (time order — the
    // stored order is the canonical per-VIP one) through the hardened
    // monitor.
    // dmlint: total-order(stable_sort keeps the canonical stored order for records within one minute)
    std::stable_sort(records.begin(), records.end(),
                     [](const netflow::FlowRecord& a,
                        const netflow::FlowRecord& b) {
                       return a.minute < b.minute;
                     });
    detect::StreamConfig stream;
    stream.reorder_lag =
        static_cast<util::Minute>(option_number(args, "--reorder-lag", 0));
    // Identical records in a stored trace are distinct sampled flows, not
    // collector re-emits — suppression stays off so the streaming and
    // offline paths see the same traffic.
    stream.suppress_duplicates = false;
    std::vector<detect::AttackIncident> incidents;
    detect::StreamMonitor monitor(
        space, nullptr, {}, detect::TimeoutTable::paper(), nullptr,
        [&incidents](const detect::AttackIncident& inc) {
          incidents.push_back(inc);
        },
        stream);
    for (const auto& r : records) monitor.ingest(r);
    monitor.finish();
    print_incidents(std::move(incidents), sampling);
    std::printf(
        "%llu incidents from %llu windows (%llu ingested: %llu late, "
        "%llu unclassifiable, %llu duplicate, %llu quarantined)\n",
        static_cast<unsigned long long>(monitor.incidents()),
        static_cast<unsigned long long>(monitor.windows_closed()),
        static_cast<unsigned long long>(monitor.records_ingested()),
        static_cast<unsigned long long>(monitor.records_late()),
        static_cast<unsigned long long>(monitor.records_unclassifiable()),
        static_cast<unsigned long long>(monitor.records_duplicate()),
        static_cast<unsigned long long>(monitor.records_quarantined()));
    return 0;
  }

  netflow::SpillConfig spill;
  if (const auto it = args.options.find("--spill-dir");
      it != args.options.end()) {
    spill.directory = it->second;
  }
  spill.ram_budget_bytes = static_cast<std::uint64_t>(option_number(
      args, "--ram-budget",
      static_cast<long long>(spill.ram_budget_bytes)));
  // Aggregation and detection run on the pool; the output does not depend
  // on its size.
  exec::ThreadPool pool(exec::workers_for(0));
  const auto trace = netflow::aggregate_windows(std::move(records), space,
                                                nullptr, &pool, &spill);
  const auto result = detect::DetectionPipeline{}.run(trace, &pool);
  print_incidents(result.incidents, sampling);
  std::printf("%zu incidents from %zu windows (%llu unattributable records)\n",
              result.incidents.size(), trace.windows().size(),
              static_cast<unsigned long long>(trace.unclassified_records()));
  return 0;
}

const char* segment_status_name(netflow::SegmentFileStatus status) {
  switch (status) {
    case netflow::SegmentFileStatus::kOk: return "ok";
    case netflow::SegmentFileStatus::kBadHeader: return "BAD HEADER";
    case netflow::SegmentFileStatus::kTruncated: return "TRUNCATED";
    case netflow::SegmentFileStatus::kBodyCorrupt: return "BODY CORRUPT";
  }
  return "?";
}

int cmd_verify_segments(const std::string& directory) {
  const auto [store, report] = netflow::SegmentStore::salvage(directory);
  util::TextTable table;
  table.set_header({"segment", "status", "bytes", "records", "detail"});
  for (const auto& entry : report.entries) {
    table.row(std::filesystem::path(entry.path).filename().string(),
              std::string(segment_status_name(entry.status)), entry.file_bytes,
              entry.records, entry.detail);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("segments:  %llu recovered, %llu damaged\n",
              static_cast<unsigned long long>(report.segments_recovered),
              static_cast<unsigned long long>(report.segments_damaged));
  std::printf("records:   %llu recovered, %llu lost\n",
              static_cast<unsigned long long>(report.records_recovered),
              static_cast<unsigned long long>(report.records_lost));
  if (report.clean()) {
    std::printf("verdict:   clean\n");
    return 0;
  }
  std::printf("verdict:   DAMAGED\n");
  return 1;
}

int cmd_verify(const Args& args) {
  if (args.positional.empty()) return usage();
  if (std::filesystem::is_directory(args.positional[0])) {
    return cmd_verify_segments(args.positional[0]);
  }
  const auto result = netflow::salvage_trace_file(args.positional[0]);
  const netflow::IngestReport& report = result.report;

  std::printf("header:    %s\n", report.header_valid ? "valid" : "INVALID");
  std::printf("end mark:  %s\n", report.end_marker_seen ? "present" : "MISSING");
  std::printf("scanned:   %llu bytes\n",
              static_cast<unsigned long long>(report.bytes_scanned));
  std::printf("blocks:    %llu decoded, %llu damaged regions\n",
              static_cast<unsigned long long>(report.blocks_decoded),
              static_cast<unsigned long long>(report.blocks_skipped));
  std::printf("records:   %llu recovered (sampling 1:%u)\n",
              static_cast<unsigned long long>(report.records_recovered),
              result.sampling);
  std::printf("errors:    %llu CRC, %llu truncation, %llu varint, %llu decode\n",
              static_cast<unsigned long long>(report.crc_mismatches),
              static_cast<unsigned long long>(report.truncations),
              static_cast<unsigned long long>(report.varint_errors),
              static_cast<unsigned long long>(report.decode_errors));
  for (const auto& range : report.lost_ranges) {
    std::printf("lost:      %llu bytes at offset %llu\n",
                static_cast<unsigned long long>(range.bytes),
                static_cast<unsigned long long>(range.offset));
  }
  if (report.clean()) {
    std::printf("verdict:   clean\n");
    return 0;
  }
  std::printf("verdict:   DAMAGED (%llu bytes lost)\n",
              static_cast<unsigned long long>(report.bytes_lost()));
  return 1;
}

int cmd_top(const Args& args) {
  if (args.positional.empty()) return usage();
  std::uint32_t sampling = 0;
  auto records = netflow::read_trace_file(args.positional[0], &sampling);
  const auto space = cloud_space_from(args);
  const auto count = static_cast<std::size_t>(option_number(args, "--count", 10));

  std::map<std::uint32_t, std::uint64_t> vip_packets;
  for (const auto& r : records) {
    const auto dir = netflow::classify(r, space);
    if (!dir) continue;
    const netflow::OrientedFlow flow{&r, *dir};
    vip_packets[flow.vip().value()] += r.packets;
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [vip, pkts] : vip_packets) ranked.push_back({pkts, vip});
  std::sort(ranked.begin(), ranked.end(), std::greater<>());

  util::TextTable table;
  table.set_header({"vip", "sampled packets", "estimated packets"});
  for (std::size_t i = 0; i < ranked.size() && i < count; ++i) {
    table.row(netflow::IPv4(ranked[i].second).to_string(), ranked[i].first,
              static_cast<std::uint64_t>(ranked[i].first) * sampling);
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_export(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto records = netflow::read_trace_file(args.positional[0]);
  std::ofstream out(args.positional[1]);
  if (!out) throw dm::FormatError("cannot open " + args.positional[1]);
  netflow::write_csv(out, records);
  std::printf("exported %zu records to %s\n", records.size(),
              args.positional[1].c_str());
  return 0;
}

int cmd_import(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream in(args.positional[0]);
  if (!in) throw dm::FormatError("cannot open " + args.positional[0]);
  const auto records = netflow::read_csv(in);
  const auto sampling =
      static_cast<std::uint32_t>(option_number(args, "--sampling", 4096));
  netflow::write_trace_file(args.positional[1], records, sampling);
  std::printf("imported %zu records to %s (1:%u)\n", records.size(),
              args.positional[1].c_str(), sampling);
  return 0;
}

// dmnf serve: the supervised multi-tenant monitor service over a recorded
// feed. Records route to synthetic tenants by VIP hash, pass through
// admission control, and flow into per-tenant VIP-sharded StreamMonitors;
// checkpoints rotate crash-safely under --state-dir every --rotate-minutes
// feed minutes. On startup the supervisor always recovers from the newest
// intact generation (reporting any damage it had to discard) and replays
// the feed from the recovered resume index — so re-running the same command
// after a crash converges on the same final state.
int cmd_serve(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto space = cloud_space_from(args);

  const auto tenants =
      static_cast<std::size_t>(std::max(1ll, option_number(args, "--tenants", 2)));
  serve::TenantSpec spec;
  spec.shards = static_cast<std::uint32_t>(
      std::max(1ll, option_number(args, "--shards", 2)));
  spec.max_records_per_minute =
      static_cast<std::uint64_t>(option_number(args, "--rate-budget", 0));
  spec.max_state_bytes =
      static_cast<std::uint64_t>(option_number(args, "--memory-budget", 0));
  spec.shed_factor =
      static_cast<std::uint64_t>(std::max(2ll, option_number(args, "--shed-k", 8)));
  std::vector<serve::TenantSpec> specs;
  for (std::size_t t = 0; t < tenants; ++t) {
    serve::TenantSpec s = spec;
    s.name = "tenant-" + std::to_string(t);
    specs.push_back(std::move(s));
  }

  serve::ServeConfig config;
  config.seed = static_cast<std::uint64_t>(option_number(args, "--seed", 42));
  config.rotation_interval =
      static_cast<util::Minute>(option_number(args, "--rotate-minutes", 60));
  config.keep_generations = static_cast<std::size_t>(
      std::max(1ll, option_number(args, "--keep-gens", 2)));
  config.stream.reorder_lag =
      static_cast<util::Minute>(option_number(args, "--reorder-lag", 0));
  const auto dir = args.options.find("--state-dir");
  if (dir != args.options.end()) config.state_dir = dir->second;

  // Sink selection: events go to --sink-out (or stdout) in the chosen
  // rendering; the buffered writer adds bounded retry with backoff.
  const auto sink_kind = args.options.count("--sink")
                             ? args.options.at("--sink")
                             : std::string("human");
  std::ofstream sink_file;
  std::ostream* sink_stream = &std::cout;
  if (args.options.count("--sink-out")) {
    sink_file.open(args.options.at("--sink-out"),
                   std::ios::binary | std::ios::trunc);
    if (!sink_file) {
      throw dm::ConfigError("cannot open " + args.options.at("--sink-out"));
    }
    sink_stream = &sink_file;
  }
  std::unique_ptr<serve::Sink> sink;
  if (sink_kind == "human") sink = std::make_unique<serve::HumanSink>(*sink_stream);
  else if (sink_kind == "json") sink = std::make_unique<serve::JsonLinesSink>(*sink_stream);
  else if (sink_kind == "binary") sink = std::make_unique<serve::BinarySink>(*sink_stream);
  else if (sink_kind == "null") sink = std::make_unique<serve::NullSink>();
  else throw dm::ConfigError("unknown --sink kind: " + sink_kind);

  serve::WriterConfig writer_config;
  writer_config.seed = config.seed;
  serve::BufferedWriter writer(*sink, writer_config);
  // The shards' monitors run on the pool; the output does not depend on
  // its size.
  exec::ThreadPool pool(exec::workers_for(0));
  serve::Supervisor supervisor(space, nullptr, std::move(specs), config,
                               &writer, &pool);

  std::uint64_t resume_index = 0;
  if (!config.state_dir.empty()) {
    const serve::RecoveryReport report = supervisor.recover();
    for (const serve::DamageEntry& d : report.ledger) {
      std::fprintf(stderr, "dmnf serve: discarded %s (%s: %s)\n",
                   d.file.c_str(), serve::damage_kind_name(d.kind),
                   d.detail.c_str());
    }
    if (report.generation >= 0) {
      std::fprintf(stderr,
                   "dmnf serve: recovered generation %lld, resuming at "
                   "record %llu\n",
                   static_cast<long long>(report.generation),
                   static_cast<unsigned long long>(report.resume_index));
      resume_index = report.resume_index;
    }
  }

  // The stored trace is in canonical per-VIP order; the service replays it
  // as a collector feed, i.e. in time order. The stable sort is a pure
  // function of the file, so a recovered resume index addresses the same
  // record on every run.
  auto records = netflow::read_trace_file(args.positional[0]);
  // dmlint: total-order(stable_sort keeps the canonical stored order for records within one minute)
  std::stable_sort(records.begin(), records.end(),
                   [](const netflow::FlowRecord& a,
                      const netflow::FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  for (std::size_t i = resume_index; i < records.size(); ++i) {
    supervisor.ingest_routed(records[i]);
  }
  supervisor.finish();
  if (!config.state_dir.empty()) supervisor.rotate_now();
  writer.close();

  std::fputs(supervisor.status_report().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "info") return cmd_info(args);
    if (command == "detect") return cmd_detect(args);
    if (command == "top") return cmd_top(args);
    if (command == "verify") return cmd_verify(args);
    if (command == "export") return cmd_export(args);
    if (command == "import") return cmd_import(args);
    if (command == "serve") return cmd_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmnf: %s\n", e.what());
    return 1;
  }
  return usage();
}
