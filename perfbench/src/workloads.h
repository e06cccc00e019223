// The three production-path workloads. Each run synthesizes its feed from
// the seed with dm::sim, hands the system under test only the encoded
// .dmnf bytes, times decode -> windows -> detectors -> incidents -> sink
// through the public netflow/detect/serve calls, and checks every timed
// pass against an independent oracle once the timed phase is over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;  ///< batch-detect | stream-replay | serve-fleet
  std::uint64_t seed = 1;
  double seconds = 10;   ///< how long the timed phase runs (at least one pass)
  bool trace = false;    ///< record spans and report per-layer metrics
  std::string work_dir;  ///< checkpoint state and span dumps go here
  std::string feed_out;  ///< set in the feed process: where the feed goes
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload end to end, printing a human-readable report to
/// stdout as it goes. Throws on unknown workloads and I/O failures.
[[nodiscard]] RunResult run_workload(const Options& options);

/// Prints the feed statistics of scenario seeds [first, first + count) and
/// the ones near the medians of all of them: the candidates for the panel
/// --seed draws its scenario seed from.
void print_panel(std::uint64_t first, std::uint64_t count);

/// The feed process's whole job: synthesizes the workload's feed for the
/// seed into options.feed_out and its statistics into feed_out + ".txt".
void write_feed(const Options& options);

}  // namespace perfbench
