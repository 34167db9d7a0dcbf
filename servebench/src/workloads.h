// The four workloads of the serving-stack benchmark (see README.md).

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace servebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string cli;   ///< path of the built `optselect` binary
  std::string work;  ///< scratch root inside the checkout
};

/// True for hot_zipf, cold_ambiguous, wire_zipf and reload_zipf.
bool KnownWorkload(const std::string& name);

/// Runs one workload and prints the result line. Returns the process
/// exit code: 0 when every answer checked out, non-zero otherwise.
int RunWorkload(const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
