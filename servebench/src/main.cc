// servebench: runs one workload of the serving-stack benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --cli PATH/optselect --work DIR
//
// Normally started by servebench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  servebench::RunOptions options;
  bool ok = true;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      ok = false;
      break;
    }
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--work") {
      options.work = value;
    } else {
      ok = false;
    }
  }
  if (!ok || !servebench::KnownWorkload(options.workload) ||
      options.seconds < 1 || options.cli.empty() || options.work.empty()) {
    std::fprintf(stderr,
                 "usage: servebench --workload hot_zipf|cold_ambiguous|"
                 "wire_zipf|reload_zipf --seed N --seconds S --trace 0|1 "
                 "--cli PATH --work DIR\n");
    return 2;
  }
  return servebench::RunWorkload(options);
}
