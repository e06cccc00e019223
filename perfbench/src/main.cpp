// perfbench — times the production path of one workload and prints its
// metrics as the last line of stdout.
//
//   perfbench --workload batch-detect|stream-replay|serve-fleet
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench --panel FIRST COUNT    (vets scenario seeds for the panel)
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload batch-detect|stream-replay|serve-fleet\n"
      "                 --seed N --seconds S --trace 0|1 --work-dir DIR\n"
      "       perfbench --panel FIRST COUNT\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--panel") {
    perfbench::print_panel(std::strtoull(argv[2], nullptr, 10),
                           std::strtoull(argv[3], nullptr, 10));
    return 0;
  }
  perfbench::Options options;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
      have_dir = true;
    } else if (flag == "--feed-out") {
      options.feed_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_dir) return usage();
  try {
    if (!options.feed_out.empty()) {
      perfbench::write_feed(options);
      return 0;
    }
    const perfbench::RunResult result = perfbench::run_workload(options);
    std::printf("%s\n", perfbench::result_json(result.correct, result.attempted,
                                               result.failed, result.metrics)
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
