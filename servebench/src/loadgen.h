// Open-loop load generation: Poisson arrival schedules (fixed rate, or a
// geometric ramp for the capacity search), replayed against the
// in-process Frontend or over the wire protocol from one thread.
// Latency is timed from each request's intended send time, so a stall
// delays every later request's clock too (no coordinated omission).

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serving/frontend.h"

namespace servebench {

/// One scheduled request: due time relative to the phase start, and the
/// index of its query in the workload's query table.
struct Arrival {
  int64_t due_ns = 0;
  uint32_t query = 0;
};

/// Discrete distribution over query indices (cumulative weights).
class QueryMix {
 public:
  explicit QueryMix(const std::vector<double>& weights);
  uint32_t Sample(uint64_t* state) const;

 private:
  std::vector<double> cdf_;
};

/// SplitMix64 step: the benchmark's one random source (stable across
/// standard libraries, unlike std::*_distribution).
uint64_t NextRandom(uint64_t* state);
double NextUniform(uint64_t* state);  // in (0, 1)

/// Poisson arrivals at a fixed `rate` (1/s) for `seconds`.
std::vector<Arrival> PoissonFixed(double rate, double seconds,
                                  const QueryMix& mix, uint64_t* state);

/// Poisson arrivals whose rate grows geometrically from `r0` to `r1`
/// over `seconds`: r(t) = r0·(r1/r0)^(t/seconds).
std::vector<Arrival> PoissonRamp(double r0, double r1, double seconds,
                                 const QueryMix& mix, uint64_t* state);
double RampRate(double r0, double r1, double seconds, int64_t t_ns);

/// Outcome of one request.
enum class Status : uint8_t {
  kPending = 0,
  kOk,        ///< answered with ok == true
  kNotOk,     ///< answered with ok == false
  kShed,      ///< refused at admission (SubmitAsync false)
  kError,     ///< wire error frame
  kProtocol,  ///< unparseable answer / connection lost
};

struct Outcome {
  int64_t send_ns = 0;  ///< when the send actually happened
  int64_t done_ns = 0;  ///< when the answer arrived
  uint64_t hash = 0;    ///< HashRanking of the answer
  uint64_t version = 0; ///< store version the answer was computed on
  uint16_t flags = 0;   ///< kAnswer* bits
  Status status = Status::kPending;
};

inline constexpr uint16_t kAnswerDiversified = 1u << 0;
inline constexpr uint16_t kAnswerCacheHit = 1u << 1;
inline constexpr uint16_t kAnswerDedup = 1u << 2;
inline constexpr uint16_t kAnswerPlan = 1u << 3;
inline constexpr uint16_t kAnswerStreaming = 1u << 4;
inline constexpr uint16_t kAnswerDegraded = 1u << 5;

/// Fills an Outcome from a Response (everything but the timestamps).
void RecordAnswer(const optselect::serving::Response& response,
                  Outcome* out);

/// One replayed phase.
struct Phase {
  std::vector<Arrival> arrivals;
  std::vector<Outcome> outcomes;
  int64_t start_ns = 0;  ///< absolute time of due_ns == 0
  size_t sent = 0;       ///< requests actually sent (ramps stop early)
  int64_t generator_cpu_ns = 0;
  int64_t process_cpu_ns = 0;

  int64_t Intended(size_t i) const { return start_ns + arrivals[i].due_ns; }
  /// Latencies (ms) of the answered requests, from intended send time.
  std::vector<double> LatenciesMs() const;
  /// How late sends ran (ms), one per sent request.
  std::vector<double> LatenessMs() const;
  size_t Failed() const;  ///< sent requests that did not answer ok
};

/// Stop rule for ramps: given the index about to be sent, the largest
/// tolerated number of unanswered requests (0 = never stop). A ramp also
/// stops once sends run more than `late_stop_ns` behind schedule.
struct BacklogCap {
  std::function<size_t(size_t index)> max_unanswered;
  int64_t late_stop_ns = 0;
  bool Stop(size_t index, size_t unanswered, int64_t late_ns) const {
    if (late_stop_ns > 0 && late_ns > late_stop_ns) return true;
    if (!max_unanswered) return false;
    size_t limit = max_unanswered(index);
    return limit > 0 && unanswered > limit;
  }
};

/// Replays `phase->arrivals` against `frontend` through SubmitAsync on
/// the calling thread, filling `phase->outcomes` (sized beforehand, so
/// the run allocates nothing). Returns once every sent request has
/// answered.
void RunInProcess(optselect::serving::Frontend* frontend,
                  const std::vector<std::string>& queries, Phase* phase,
                  const BacklogCap& cap);

/// Same over one connected TCP socket speaking the wire protocol, with
/// sends and receives on the calling thread. Request ids start at
/// `*next_id` (advanced past the phase).
void RunWire(int fd, const std::vector<std::string>& queries, Phase* phase,
             uint64_t* next_id, const BacklogCap& cap);

/// Sends one request over `fd` and waits for its answer (idle round
/// trips, probes). False on a transport or protocol failure.
bool WireRoundTrip(int fd, const std::string& query, uint64_t id,
                   optselect::serving::Response* out);

/// Opens a blocking TCP connection to 127.0.0.1:port (TCP_NODELAY);
/// -1 on failure.
int ConnectLoopback(uint16_t port);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
