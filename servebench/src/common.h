// Shared helpers of the serving-stack benchmark: clocks, order
// statistics, process accounting read from /proc, a supervised child
// process, and the result line.

#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// Spins until `deadline_ns` (NowNs scale). The generator never sleeps:
/// on a virtual machine a thread woken from sleep can start
/// milliseconds late, which would show up as generator lateness.
void WaitUntil(int64_t deadline_ns);

/// CPU time of the whole process / of the calling thread, nanoseconds.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// CPU time of process `pid`: the sum over its threads (/proc schedstat).
int64_t PidCpuNs(pid_t pid);

/// A field of /proc/<pid>/status in KiB ("VmRSS", "VmHWM"); 0 when
/// unreadable. pid 0 reads the calling process.
int64_t StatusKib(pid_t pid, const char* field);

/// Order statistics over a copy of `values` (nearest-rank on sorted
/// data; 0 for an empty input).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// FNV-1a over a ranking's doc ids: the per-answer fingerprint every
/// response is checked with.
uint64_t HashRanking(const std::vector<uint32_t>& ranking);

/// Web-style query normalization written for the checks (lowercase,
/// trimmed, single spaces), independent of the serving layer's.
std::string NormalizeForCheck(const std::string& raw);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Prints the result JSON as the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics);

/// A child process (the `optselect serve --listen` server). The child
/// dies with the benchmark (PR_SET_PDEATHSIG); Stop() sends SIGTERM and
/// waits, and the destructor kills and reaps whatever is still running.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` with stdout and stderr sent to `log_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& log_path);
  /// SIGTERM, then waits for exit; true when it exited with status 0.
  bool Stop();
  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  /// True while the process has not exited (reaps it if it has).
  bool Alive();

 private:
  pid_t pid_ = -1;
};

/// Reads a whole file; empty when missing.
std::string ReadFile(const std::string& path);

/// mkdir -p.
bool MakeDirs(const std::string& path);

/// rm -rf of a directory the benchmark created.
void RemoveTree(const std::string& path);

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
