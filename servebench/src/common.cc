#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WaitUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

static int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t PidCpuNs(pid_t pid) {
  // Sum of the first field of every thread's schedstat: time on CPU in
  // nanoseconds (utime + stime in /proc/<pid>/stat count whole ticks).
  const std::string task = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  int64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(task, ec)) {
    total += std::atoll(ReadFile(entry.path().string() + "/schedstat").c_str());
  }
  return total;
}

int64_t StatusKib(pid_t pid, const char* field) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atoll(line.c_str() + len + 1);
    }
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t HashRanking(const std::vector<uint32_t>& ranking) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t doc : ranking) {
    for (int b = 0; b < 4; ++b) {
      h ^= (doc >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h ^ ranking.size();
}

std::string NormalizeForCheck(const std::string& raw) {
  std::string out;
  bool space = false;
  for (char ch : raw) {
    if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
      space = !out.empty();
      continue;
    }
    if (space) out.push_back(' ');
    space = false;
    out.push_back(ch >= 'A' && ch <= 'Z' ? static_cast<char>(ch - 'A' + 'a')
                                         : ch);
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
}

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

bool Child::Stop() {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  pid_t got;
  do {
    got = waitpid(pid_, &status, 0);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool Child::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace servebench
