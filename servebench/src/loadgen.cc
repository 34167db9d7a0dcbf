#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common.h"
#include "net/wire.h"

namespace servebench {

namespace serving = optselect::serving;
namespace net = optselect::net;

// An answer that has not arrived this long after the last send means
// the server is wedged; the run fails instead of hanging.
constexpr int64_t kDrainTimeoutNs = 60LL * 1000000000LL;

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NextUniform(uint64_t* state) {
  return (static_cast<double>(NextRandom(state) >> 11) + 0.5) *
         (1.0 / 9007199254740992.0);
}

QueryMix::QueryMix(const std::vector<double>& weights) {
  double sum = 0.0;
  for (double w : weights) sum += w;
  double acc = 0.0;
  for (double w : weights) {
    acc += w / sum;
    cdf_.push_back(acc);
  }
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

uint32_t QueryMix::Sample(uint64_t* state) const {
  double u = NextUniform(state);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

std::vector<Arrival> PoissonFixed(double rate, double seconds,
                                  const QueryMix& mix, uint64_t* state) {
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(NextUniform(state)) / rate;
    if (t >= seconds) break;
    out.push_back(Arrival{static_cast<int64_t>(t * 1e9), mix.Sample(state)});
  }
  return out;
}

std::vector<Arrival> PoissonRamp(double r0, double r1, double seconds,
                                 const QueryMix& mix, uint64_t* state) {
  std::vector<Arrival> out;
  const double growth = std::log(r1 / r0);
  double cumulative = 0.0;  // Λ(t) of the next arrival
  for (;;) {
    cumulative += -std::log(NextUniform(state));
    // Invert Λ(t) = r0·T/ln(a)·(a^(t/T) − 1).
    double t = seconds * std::log1p(cumulative * growth / (r0 * seconds)) /
               growth;
    if (t >= seconds) break;
    out.push_back(Arrival{static_cast<int64_t>(t * 1e9), mix.Sample(state)});
  }
  return out;
}

double RampRate(double r0, double r1, double seconds, int64_t t_ns) {
  return r0 * std::pow(r1 / r0, static_cast<double>(t_ns) / 1e9 / seconds);
}

void RecordAnswer(const serving::Response& response, Outcome* out) {
  out->hash = HashRanking(response.ranking);
  out->version = response.store_version;
  uint16_t f = 0;
  if (response.diversified) f |= kAnswerDiversified;
  if (response.cache_hit) f |= kAnswerCacheHit;
  if (response.batch_dedup) f |= kAnswerDedup;
  if (response.plan_served) f |= kAnswerPlan;
  if (response.streaming_served) f |= kAnswerStreaming;
  if (response.degraded) f |= kAnswerDegraded;
  out->flags = f;
  out->status = response.ok ? Status::kOk : Status::kNotOk;
}

std::vector<double> Phase::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    if (outcomes[i].status != Status::kOk) continue;
    out.push_back(static_cast<double>(outcomes[i].done_ns - Intended(i)) /
                  1e6);
  }
  return out;
}

std::vector<double> Phase::LatenessMs() const {
  std::vector<double> out;
  out.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    out.push_back(static_cast<double>(outcomes[i].send_ns - Intended(i)) /
                  1e6);
  }
  return out;
}

size_t Phase::Failed() const {
  size_t failed = 0;
  for (size_t i = 0; i < sent; ++i) {
    if (outcomes[i].status != Status::kOk) ++failed;
  }
  return failed;
}

void RunInProcess(serving::Frontend* frontend,
                  const std::vector<std::string>& queries, Phase* out,
                  const BacklogCap& cap) {
  Phase& phase = *out;
  std::atomic<size_t> answered{0};

  const int64_t cpu0 = ProcessCpuNs();
  const int64_t gen0 = ThreadCpuNs();
  phase.start_ns = NowNs() + 1000000;
  size_t i = 0;
  for (; i < phase.arrivals.size(); ++i) {
    if ((i & 15) == 0 &&
        cap.Stop(i, i - answered.load(std::memory_order_relaxed),
                 NowNs() - phase.Intended(i))) {
      break;
    }
    WaitUntil(phase.Intended(i));
    Outcome* slot = &phase.outcomes[i];
    slot->send_ns = NowNs();
    bool admitted = frontend->SubmitAsync(
        serving::Request(queries[phase.arrivals[i].query]),
        [slot, &answered](serving::Response response) {
          slot->done_ns = NowNs();
          RecordAnswer(response, slot);
          answered.fetch_add(1, std::memory_order_release);
        });
    if (!admitted) {
      slot->done_ns = slot->send_ns;
      slot->status = Status::kShed;
      answered.fetch_add(1, std::memory_order_release);
    }
  }
  phase.sent = i;
  const int64_t last_send = NowNs();
  while (answered.load(std::memory_order_acquire) < phase.sent) {
    if (NowNs() - last_send > kDrainTimeoutNs) {
      std::fprintf(stderr, "servebench: in-process answers stopped arriving\n");
      std::_Exit(3);  // callbacks still reference this phase's slots
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  phase.generator_cpu_ns = ThreadCpuNs() - gen0;
  phase.process_cpu_ns = ProcessCpuNs() - cpu0;
}

namespace {

// Applies one parsed frame to the phase; false on a protocol violation.
bool ApplyFrame(const net::Frame& frame, Phase* phase, uint64_t id_base,
                size_t* answered) {
  if (frame.request_id < id_base ||
      frame.request_id - id_base >= phase->sent) {
    return false;
  }
  Outcome* slot = &phase->outcomes[frame.request_id - id_base];
  if (slot->status != Status::kPending) return false;
  slot->done_ns = NowNs();
  if (frame.type == net::FrameType::kResponse) {
    serving::Response response;
    if (!net::DecodeResponsePayload(frame, &response)) return false;
    net::UnpackResponseFlags(frame.flags, &response);
    RecordAnswer(response, slot);
  } else if (frame.type == net::FrameType::kError) {
    slot->status = Status::kError;
  } else {
    return false;
  }
  ++*answered;
  return true;
}

}  // namespace

void RunWire(int fd, const std::vector<std::string>& queries, Phase* result,
             uint64_t* next_id, const BacklogCap& cap) {
  Phase& phase = *result;
  const uint64_t id_base = *next_id;
  net::FrameParser parser;
  std::string out;
  size_t out_off = 0;
  size_t answered = 0;
  bool broken = false;
  char buf[1 << 16];

  // Non-blocking read of everything available; false once the stream
  // is unusable.
  auto pump = [&]() {
    for (;;) {
      ssize_t n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        if (!parser.Feed(buf, static_cast<size_t>(n))) return false;
        while (parser.HasFrame()) {
          if (!ApplyFrame(parser.Next(), &phase, id_base, &answered)) {
            return false;
          }
        }
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  };
  auto flush = [&]() {
    while (out_off < out.size()) {
      ssize_t n = send(fd, out.data() + out_off, out.size() - out_off,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return true;
      }
      return false;
    }
    out.clear();
    out_off = 0;
    return true;
  };
  const int64_t cpu0 = ProcessCpuNs();
  phase.start_ns = NowNs() + 1000000;
  size_t i = 0;
  for (; i < phase.arrivals.size() && !broken; ++i) {
    if ((i & 15) == 0 &&
        cap.Stop(i, i - answered, NowNs() - phase.Intended(i))) {
      break;
    }
    const int64_t due = phase.Intended(i);
    for (;;) {
      if (!pump() || !flush()) {
        broken = true;
        break;
      }
      if (NowNs() >= due) break;
    }
    if (broken) break;
    Outcome* slot = &phase.outcomes[i];
    slot->send_ns = NowNs();
    out += net::EncodeRequestFrame(
        serving::Request(queries[phase.arrivals[i].query], id_base + i));
    phase.sent = i + 1;
    if (!flush()) broken = true;
  }
  phase.sent = std::min(phase.sent, i);
  const int64_t last_send = NowNs();
  while (!broken && answered < phase.sent) {
    if (!pump() || !flush() || NowNs() - last_send > kDrainTimeoutNs) {
      broken = true;
      break;
    }
  }
  if (broken) {
    for (size_t j = 0; j < phase.sent; ++j) {
      if (phase.outcomes[j].status == Status::kPending) {
        phase.outcomes[j].status = Status::kProtocol;
        phase.outcomes[j].done_ns = NowNs();
      }
    }
  }
  phase.process_cpu_ns = ProcessCpuNs() - cpu0;
  phase.generator_cpu_ns = phase.process_cpu_ns;
  *next_id = id_base + phase.arrivals.size();
}

bool WireRoundTrip(int fd, const std::string& query, uint64_t id,
                   serving::Response* out) {
  std::string frame = net::EncodeRequestFrame(serving::Request(query, id));
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  net::FrameParser parser;
  char buf[1 << 14];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (!parser.Feed(buf, static_cast<size_t>(n))) return false;
    if (!parser.HasFrame()) continue;
    net::Frame reply = parser.Next();
    if (reply.request_id != id || reply.type != net::FrameType::kResponse ||
        parser.HasFrame()) {
      return false;
    }
    *out = serving::Response{};
    if (!net::DecodeResponsePayload(reply, out)) return false;
    net::UnpackResponseFlags(reply.flags, out);
    return true;
  }
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace servebench
