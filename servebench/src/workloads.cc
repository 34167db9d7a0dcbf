#include "workloads.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "cluster/sharded_cluster.h"
#include "common.h"
#include "loadgen.h"
#include "net/server.h"
#include "oracle.h"
#include "pipeline/testbed.h"
#include "replay.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"

namespace servebench {
namespace {

namespace os = optselect;
using os::serving::Frontend;
using os::serving::Request;
using os::serving::Response;

// ---------------------------------------------------------------- config
//
// Everything below is fixed: the same on every commit and every seed.
// The seed only draws the traffic (arrival times, query order, which log
// tail gets appended), never the corpus, so runs with different seeds
// measure the same system on statistically identical traffic.

constexpr size_t kTopics = 50;           // TREC 2009 diversity: 50 topics
constexpr uint64_t kTestbedSeed = 17;    // `optselect` CLI default
constexpr size_t kCandidates = 200;      // |R_q| requested
constexpr double kThresholdC = 0.3;
constexpr double kLambda = 0.15;
constexpr size_t kDepth = 10;            // k
constexpr int kSetupReps = 3;            // set-ups per run (median)
constexpr size_t kAppendRecords = 200;   // log records per tail append
constexpr double kZipfSkew = 1.0;

struct Spec {
  std::string name;
  double low_qps;     ///< fixed low offered rate (≈ service time)
  double high_qps;    ///< fixed high offered rate
  double limit_ms;    ///< p99 latency limit of the capacity search
  double ramp_from;   ///< capacity ramp start rate
  double ramp_to;     ///< capacity ramp end rate
  // Shares of --seconds given to the low, high and ramp phases.
  double low_share;
  double high_share;
  double ramp_share;
  double swap_period_s = 0.0;  ///< reload_zipf: one append per period
};

const Spec kSpecs[] = {
    {"hot_zipf", 20000, 200000, 5.0, 100000, 1200000, 0.25, 0.30, 0.35},
    {"cold_ambiguous", 40, 120, 150.0, 40, 500, 0.20, 0.50, 0.25},
    {"wire_zipf", 5000, 30000, 10.0, 10000, 300000, 0.25, 0.30, 0.35},
    {"reload_zipf", 20000, 150000, 5.0, 50000, 800000, 0.25, 0.30, 0.35, 0.25},
};

os::pipeline::TestbedConfig BenchTestbed() {
  os::pipeline::TestbedConfig config = os::pipeline::TestbedConfig::TrecShaped();
  config.universe.num_topics = kTopics;
  config.universe.seed = kTestbedSeed;
  config.corpus.seed = kTestbedSeed + 1;
  config.log.seed = kTestbedSeed + 2;
  return config;
}

os::pipeline::PipelineParams BenchParams() {
  os::pipeline::PipelineParams p;
  p.num_candidates = kCandidates;
  p.threshold_c = kThresholdC;
  p.diversify.lambda = kLambda;
  p.diversify.k = kDepth;
  return p;
}

os::serving::ServingConfig NodeConfig(size_t workers, bool cache,
                                      size_t batch) {
  os::serving::ServingConfig c;
  // Deep enough that a stall of the host never sheds a request: overload
  // shows as latency, which the capacity search measures.
  c.queue_capacity = 1 << 16;
  c.num_workers = workers;
  c.enable_cache = cache;
  c.max_batch = batch;
  c.params = BenchParams();
  return c;
}

[[noreturn]] void Fatal(const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

// ------------------------------------------------------------ artifacts
//
// Prepared in a child process before anything is timed: the v4 store,
// the query population, and the log tails later appended. Preparing in a
// child keeps its memory out of the measured process's resident set.

struct Artifacts {
  std::vector<std::string> population;  ///< distinct logged queries
  std::vector<std::string> stored;      ///< stored (ambiguous) keys
  struct Append {
    std::string key;    ///< the stored query expected to change
    std::string lines;  ///< TSV records to append
  };
  std::vector<Append> appends;
};

int PrepareChild(const std::string& dir, bool plans, uint64_t seed,
                 size_t num_appends) {
  os::pipeline::Testbed testbed(BenchTestbed());
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  os::store::StoreBuilderOptions options;
  options.compile_plans = plans;
  options.plan.num_candidates = kCandidates;
  options.plan.threshold_c = kThresholdC;
  os::store::DiversificationStore built;
  os::store::BuildStore(testbed.detector(), testbed.searcher(),
                        testbed.snippets(), testbed.analyzer(),
                        testbed.corpus().store, roots, options, &built);
  if (!os::store::MappedStoreFile::WriteV4(built, dir + "/store.bin").ok()) {
    return 1;
  }

  const os::querylog::QueryLog& log = testbed.log_result().log;
  std::unordered_map<std::string, uint64_t> counts;
  for (const auto& record : log.records()) ++counts[record.query];
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [query, count] : counts) ranked.emplace_back(count, query);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::ofstream population(dir + "/population.tsv");
  for (const auto& [count, query] : ranked) {
    population << count << '\t' << query << '\n';
  }

  std::vector<std::string> keys;
  for (const auto& [key, entry] : built.entries()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::ofstream stored(dir + "/stored.tsv");
  for (const std::string& key : keys) stored << key << '\n';

  // Each append repeats the records of one stored query's most probable
  // specialization: its frequency, and so P(q′|q) of that entry, moves.
  // The stored queries are taken in a seeded order, each once before any
  // repeats, so every run swaps (nearly) the same set of entries.
  uint64_t state = seed * 0x2545F4914F6CDD1DULL + 7;
  std::vector<size_t> perm(keys.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[NextRandom(&state) % i]);
  }
  std::ofstream index(dir + "/appends.tsv");
  for (size_t i = 0; i < num_appends; ++i) {
    const std::string& key = keys[perm[i % perm.size()]];
    const auto* entry = built.Find(key);
    const os::store::StoredSpecialization* spec = &entry->specializations[0];
    for (const auto& s : entry->specializations) {
      if (s.probability > spec->probability ||
          (s.probability == spec->probability && s.query < spec->query)) {
        spec = &s;
      }
    }
    os::querylog::QueryLog chunk;
    for (const auto& record : log.records()) {
      if (record.query == spec->query) chunk.Add(record);
      if (chunk.size() >= kAppendRecords) break;
    }
    std::string path = dir + "/append-" + std::to_string(i) + ".tsv";
    if (!chunk.SaveTsv(path).ok()) return 1;
    index << key << '\n';
  }
  std::ofstream tail(dir + "/tail.tsv");
  return tail ? 0 : 1;
}

Artifacts Prepare(const std::string& dir, bool plans, uint64_t seed,
                  size_t num_appends) {
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) Fatal("fork failed");
  if (pid == 0) std::_Exit(PrepareChild(dir, plans, seed, num_appends));
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Fatal("preparing the store and traffic failed");
  }
  Artifacts a;
  std::istringstream population(ReadFile(dir + "/population.tsv"));
  std::string line;
  while (std::getline(population, line)) {
    a.population.push_back(line.substr(line.find('\t') + 1));
  }
  std::istringstream stored(ReadFile(dir + "/stored.tsv"));
  while (std::getline(stored, line)) a.stored.push_back(line);
  std::istringstream index(ReadFile(dir + "/appends.tsv"));
  for (size_t i = 0; std::getline(index, line); ++i) {
    a.appends.push_back(Artifacts::Append{
        line, ReadFile(dir + "/append-" + std::to_string(i) + ".tsv")});
  }
  if (a.population.empty() || a.stored.empty() ||
      a.appends.size() != num_appends) {
    Fatal("prepared artifacts are incomplete");
  }
  return a;
}

// Appends `data` to the log tail as one atomic step: the whole new tail
// is written beside it and renamed over it, so a server polling the tail
// on its own schedule sees either none or all of an append (a torn
// append would swap in a store that no single reference state matches).
bool AppendToTail(const std::string& path, std::string* content,
                  const std::string& data) {
  *content += data;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << *content;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// ---------------------------------------------------------------- checks

/// Expected answers per (normalized query, store version): the initial
/// store's entries, overridden by every change a swap made.
class Answers {
 public:
  Answers(OracleStack stack, os::store::DiversificationStore initial)
      : stack_(stack), initial_(std::move(initial)) {}

  /// At store version `version` the entry of `key` became `entry`
  /// (nullopt: removed).
  void Change(const std::string& key, uint64_t version,
              std::optional<os::store::StoredEntry> entry) {
    changes_[key].push_back(
        {version, entry ? std::make_shared<os::store::StoredEntry>(*entry)
                        : nullptr});
  }

  const Expected& Get(const std::string& key, uint64_t version) {
    const os::store::StoredEntry* entry = initial_.Find(key);
    uint64_t applied = 0;
    auto it = changes_.find(key);
    if (it != changes_.end()) {
      for (const auto& change : it->second) {
        if (change.version <= version) {
          entry = change.entry.get();
          applied = change.version;
        }
      }
    }
    auto memo_key = std::make_pair(key, applied);
    auto found = memo_.find(memo_key);
    if (found != memo_.end()) return found->second;
    return memo_.emplace(memo_key, ExpectedAnswer(stack_, key, entry))
        .first->second;
  }

  const os::store::DiversificationStore& initial() const { return initial_; }
  const OracleStack& stack() const { return stack_; }

 private:
  struct ChangeRecord {
    uint64_t version;
    std::shared_ptr<const os::store::StoredEntry> entry;
  };
  OracleStack stack_;
  os::store::DiversificationStore initial_;
  std::map<std::string, std::vector<ChangeRecord>> changes_;
  std::map<std::pair<std::string, uint64_t>, Expected> memo_;
};

/// Entries whose mined content differs between two snapshots.
std::vector<std::pair<std::string, std::optional<os::store::StoredEntry>>>
DiffSnapshots(const os::store::StoreSnapshot& before,
              const os::store::StoreSnapshot& after) {
  std::vector<std::pair<std::string, std::optional<os::store::StoredEntry>>> out;
  const auto& a = before.store().entries();
  const auto& b = after.store().entries();
  for (const auto& [key, entry] : b) {
    auto it = a.find(key);
    if (it == a.end() || !os::store::StoredEntriesEqual(it->second, entry)) {
      out.emplace_back(key, entry);
    }
  }
  for (const auto& [key, entry] : a) {
    if (b.find(key) == b.end()) out.emplace_back(key, std::nullopt);
  }
  return out;
}

// ------------------------------------------------------------ the run

class Run {
 public:
  explicit Run(const RunOptions& options) : opt_(options) {
    for (const Spec& s : kSpecs) {
      if (s.name == options.workload) spec_ = s;
    }
    dir_ = options.work + "/" + options.workload + "-" +
           std::to_string(getpid());
    wire_ = spec_.name == "wire_zipf";
    cold_ = spec_.name == "cold_ambiguous";
    reload_ = spec_.name == "reload_zipf";
  }
  ~Run() { RemoveTree(dir_); }

  int Main();

 private:
  // Serving side of the in-process workloads.
  struct Side {
    std::unique_ptr<os::pipeline::Testbed> testbed;
    std::shared_ptr<const os::store::MappedStoreFile> mapped;
    std::unique_ptr<os::cluster::ShardedCluster> cluster;
    std::unique_ptr<os::serving::ServingNode> node;
    Frontend* frontend() const {
      return cluster != nullptr ? static_cast<Frontend*>(cluster.get())
                                : static_cast<Frontend*>(node.get());
    }
  };

  double SetupInProcess(Side* side);
  double SetupWire(int rep);
  void MakeSchedules();
  void RunPhase(Phase* phase, const BacklogCap& cap);
  void ReloadWriter();
  void EndSwaps();
  bool TickSide();
  std::vector<os::serving::ServingNode*> Nodes() const;
  void BuildSide(Side* side);
  ReplayStack MakeReplayStack() const;
  void ReplayRequests();
  void TraceLayers(std::map<std::string, Metric>* m);
  void ParseServerLog();
  void AddRefreshers();
  void CheckWireAgainstTwin();
  void CheckAll();
  void CheckOutcome(const std::string& query, const Outcome& outcome,
                    const char* where);
  void Wrong(const std::string& why);
  double Capacity(const Phase& ramp) const;

  RunOptions opt_;
  Spec spec_;
  std::string dir_;
  bool wire_ = false;
  bool cold_ = false;
  bool reload_ = false;
  Artifacts art_;
  std::vector<std::string> queries_;  // the workload's query table
  Phase warm_, low_, high_, ramp_;

  Side side_;
  Child child_;
  uint16_t port_ = 0;
  int fd_ = -1;
  uint64_t next_id_ = 1;

  std::unique_ptr<Answers> answers_;
  std::vector<std::unique_ptr<os::serving::StoreRefresher>> refreshers_;
  std::vector<std::pair<std::string, Outcome>> probes_;  // checked too
  std::vector<Outcome> wait_probes_;  // wire probes awaiting a swap
  std::vector<double> swap_ms_;  // append to new snapshot answering
  // Reload writer accounting (its bookkeeping is not serving work).
  std::atomic<bool> writer_stop_{false};
  std::atomic<int64_t> writer_cpu_{0};
  std::atomic<int64_t> writer_tick_cpu_{0};
  std::vector<std::pair<std::string, std::pair<uint64_t,
      std::optional<os::store::StoredEntry>>>> reload_changes_;
  std::vector<std::string> writer_errors_;

  // Traced runs: span logs (one per recording thread) and the step-by-
  // step refresh.
  SpanLog setup_log_;
  SpanLog request_log_;
  SpanLog reload_log_;
  std::unique_ptr<ReloadReplayer> reload_replay_;
  uint64_t tick_id_ = 0;
  // Counters over the traced run's high phase.
  double cache_hit_ratio_ = 0.0;
  double batch_mean_ = 0.0;
  double dedup_ratio_ = 0.0;
  double shard_share_max_ = 1.0;
  std::string server_log_;  // the serving child's last output
  std::string tail_;        // contents of the appended log tail
  std::vector<double> swap_cpu_ms_;  // refresh CPU per swap
  int64_t last_tick_cpu_ns_ = 0;     // CPU of the last TickSide's refresh
  // Results of ReplayRequests, turned into metrics by TraceLayers.
  std::map<std::string, double> layer_us_;
  double handoff_us_ = 0.0;
  double rtt_over_local_us_ = 0.0;
  double materialized_ratio_ = 0.0;
  double req_bytes_ = 0.0;
  double resp_bytes_ = 0.0;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

void Run::Wrong(const std::string& why) {
  ++wrong_;
  if (wrong_ <= 10) std::fprintf(stderr, "servebench: WRONG %s\n", why.c_str());
}

void Run::MakeSchedules() {
  uint64_t state = opt_.seed * 0x9E3779B97F4A7C15ULL + 0x51ED;
  std::vector<double> weights;
  if (cold_) {
    queries_ = art_.stored;
    weights.assign(queries_.size(), 1.0);
  } else {
    queries_ = art_.population;
    for (size_t r = 0; r < queries_.size(); ++r) {
      weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew));
    }
  }
  QueryMix mix(weights);
  // Warm-up: every query of the table once, in a seeded order, so the
  // cache and lazily built state are filled before anything is timed.
  std::vector<uint32_t> order(queries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[NextRandom(&state) % i]);
  }
  const double warm_rate = std::max(spec_.low_qps, spec_.high_qps / 4);
  for (size_t i = 0; i < order.size(); ++i) {
    warm_.arrivals.push_back(Arrival{
        static_cast<int64_t>(1e9 * static_cast<double>(i) / warm_rate), order[i]});
  }
  const double s = opt_.seconds;
  low_.arrivals = PoissonFixed(spec_.low_qps, spec_.low_share * s, mix, &state);
  high_.arrivals = PoissonFixed(spec_.high_qps, spec_.high_share * s, mix, &state);
  ramp_.arrivals = PoissonRamp(spec_.ramp_from, spec_.ramp_to, spec_.ramp_share * s,
                               mix, &state);
  if (cold_) {
    // Every stored query equally often: each block of |table| requests
    // is a fresh permutation, so a phase's mix does not depend on luck.
    for (Phase* p : {&low_, &high_, &ramp_}) {
      std::vector<uint32_t> block;
      for (size_t i = 0; i < p->arrivals.size(); ++i) {
        if (block.empty()) {
          block = order;
          for (size_t j = block.size(); j > 1; --j) {
            std::swap(block[j - 1], block[NextRandom(&state) % j]);
          }
        }
        p->arrivals[i].query = block.back();
        block.pop_back();
      }
    }
  }
  for (Phase* p : {&warm_, &low_, &high_, &ramp_}) {
    p->outcomes.assign(p->arrivals.size(), Outcome{});
  }
}

void Run::BuildSide(Side* side) {
  {
    std::optional<ScopedSpan> span;
    if (opt_.trace) span.emplace(&setup_log_, "pipeline.testbed", 0);
    side->testbed = std::make_unique<os::pipeline::Testbed>(BenchTestbed());
  }
  {
    std::optional<ScopedSpan> span;
    if (opt_.trace) span.emplace(&setup_log_, "store.map", 0);
    auto mapped = os::store::MappedStoreFile::Map(dir_ + "/store.bin");
    if (!mapped.ok()) Fatal("cannot map store: " + mapped.status().ToString());
    side->mapped = std::move(mapped).value();
  }
  std::optional<ScopedSpan> span;
  if (opt_.trace) span.emplace(&setup_log_, "serving.start", 0);
  const os::pipeline::Testbed& tb = *side->testbed;
  if (spec_.name == "hot_zipf" || wire_) {
    os::cluster::ClusterConfig cc;
    cc.num_shards = 2;
    cc.node = NodeConfig(1, true, 8);
    side->cluster = std::make_unique<os::cluster::ShardedCluster>(
        side->mapped, &tb.searcher(), &tb.snippets(), &tb.analyzer(),
        &tb.corpus().store, &tb.recommender().popularity(), cc);
  } else {
    auto config = cold_ ? NodeConfig(2, false, 1) : NodeConfig(2, true, 8);
    side->node = std::make_unique<os::serving::ServingNode>(
        os::store::StoreSnapshot::FromMapped(side->mapped), &tb.searcher(),
        &tb.snippets(), &tb.analyzer(), &tb.corpus().store, config);
  }
}

double Run::SetupInProcess(Side* side) {
  const int64_t t0 = NowNs();
  BuildSide(side);
  // Set-up ends when the serving side admits its first request.
  std::atomic<bool> done{false};
  auto outcome = std::make_shared<Outcome>();
  const std::string& first = queries_[warm_.arrivals.front().query];
  outcome->send_ns = NowNs();
  bool admitted = side->frontend()->SubmitAsync(
      Request(first), [outcome, &done](Response r) {
        outcome->done_ns = NowNs();
        RecordAnswer(r, outcome.get());
        done.store(true, std::memory_order_release);
      });
  const int64_t t1 = NowNs();
  if (!admitted) Fatal("first request was not admitted");
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  probes_.emplace_back(first, *outcome);
  return static_cast<double>(t1 - t0) / 1e9;
}

void Run::AddRefreshers() {
  // One refresher per shard tailing the same log (as `optselect serve`
  // wires them); each applies only the keys its shard holds.
  const os::pipeline::Testbed& tb = *side_.testbed;
  std::vector<os::serving::ServingNode*> nodes = Nodes();
  std::vector<std::function<bool(const std::string&)>> keep(nodes.size());
  for (size_t i = 0; side_.cluster && i < nodes.size(); ++i) {
    os::store::ShardFilter filter = side_.cluster->filter(i);
    keep[i] = [filter](const std::string& key) { return filter.Keeps(key); };
  }
  if (opt_.trace) {
    // The traced run performs the same refresh step by step, with a span
    // around each layer call.
    reload_replay_ = std::make_unique<ReloadReplayer>(
        nodes, keep, MakeReplayStack(), tb.log_result().log,
        dir_ + "/tail.tsv", !cold_, &reload_log_);
    return;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    os::serving::StoreRefresherConfig rc;
    rc.log_path = dir_ + "/tail.tsv";
    // The cold workload serves plan-less entries only.
    rc.builder.compile_plans = !cold_;
    rc.key_filter = keep[i];
    refreshers_.push_back(std::make_unique<os::serving::StoreRefresher>(
        nodes[i], &tb.searcher(), &tb.snippets(), &tb.analyzer(),
        &tb.corpus().store, tb.log_result().log, rc));
  }
}

void Run::CheckWireAgainstTwin() {
  // Every wire answer must be bit-identical to the in-process answer of
  // the same query on the same store.
  std::vector<Outcome> twin(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    RecordAnswer(side_.frontend()->Submit(Request(queries_[q])), &twin[q]);
  }
  const uint16_t kept = kAnswerDiversified | kAnswerPlan | kAnswerStreaming;
  for (const Phase* p : {&warm_, &low_, &high_, &ramp_}) {
    for (size_t i = 0; i < p->sent; ++i) {
      const Outcome& got = p->outcomes[i];
      const Outcome& want = twin[p->arrivals[i].query];
      if (got.status != Status::kOk) continue;
      if (got.hash != want.hash || got.version != want.version ||
          (got.flags & kept) != (want.flags & kept)) {
        Wrong("wire answer for \"" + queries_[p->arrivals[i].query] +
              "\" differs from the in-process answer");
        ++failed_;
      }
    }
  }
}

double Run::SetupWire(int rep) {
  const std::string port_file = dir_ + "/port";
  std::remove(port_file.c_str());
  std::vector<std::string> argv = {
      opt_.cli, "serve", dir_, "--listen", "0", "--port-file", port_file,
      "--shards", "2", "--workers", "1", "--batch", "8",
      "--candidates", std::to_string(kCandidates),
      "--c", "0.3", "--lambda", "0.15", "--k", std::to_string(kDepth),
      "--topics", std::to_string(kTopics),
      "--seed", std::to_string(kTestbedSeed),
      "--max-inflight", "4096",
      "--refresh-interval", "0.002", "--log-tail", dir_ + "/tail.tsv"};
  const int64_t t0 = NowNs();
  if (!child_.Start(argv, dir_ + "/serve-" + std::to_string(rep) + ".log")) {
    Fatal("cannot start optselect serve");
  }
  struct stat st {};
  while (stat(port_file.c_str(), &st) != 0) {
    if (!child_.Alive()) Fatal("optselect serve exited during start-up");
    if (NowNs() - t0 > 120LL * 1000000000LL) Fatal("optselect serve timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t t1 = NowNs();
  port_ = static_cast<uint16_t>(std::atoi(ReadFile(port_file).c_str()));
  return static_cast<double>(t1 - t0) / 1e9;
}

void Run::RunPhase(Phase* phase, const BacklogCap& cap) {
  if (wire_) {
    RunWire(fd_, queries_, phase, &next_id_, cap);
  } else {
    RunInProcess(side_.frontend(), queries_, phase, cap);
  }
  attempted_ += phase->sent;
  failed_ += phase->Failed();
}

void Run::ReloadWriter() {
  // One append + refresh + probe per period, for as long as the load
  // runs: the snapshot swaps under traffic.
  os::serving::ServingNode* node = side_.node.get();
  const int64_t t_start = NowNs();
  for (size_t s = 0; s < art_.appends.size(); ++s) {
    const int64_t due =
        t_start + static_cast<int64_t>((s + 1) * spec_.swap_period_s * 1e9);
    while (NowNs() < due && !writer_stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (writer_stop_.load()) break;
    const int64_t cpu_start = ThreadCpuNs();
    auto before = node->snapshot();
    const int64_t t0 = NowNs();
    AppendToTail(dir_ + "/tail.tsv", &tail_, art_.appends[s].lines);
    const int64_t tick0 = ThreadCpuNs();
    bool ticked = reload_replay_ != nullptr
                      ? reload_replay_->Tick(++tick_id_)
                      : refreshers_[0]->TickOnce().ok();
    const int64_t tick_ns = ThreadCpuNs() - tick0;
    writer_tick_cpu_ += tick_ns;
    auto after = node->snapshot();
    Outcome probe;
    probe.send_ns = NowNs();
    Response r = node->Submit(Request(art_.appends[s].key));
    probe.done_ns = NowNs();
    RecordAnswer(r, &probe);
    const int64_t t1 = NowNs();
    if (!ticked || after->version() <= before->version()) {
      writer_errors_.push_back("append " + std::to_string(s) +
                               " did not swap the store");
    } else if (probe.version != after->version()) {
      writer_errors_.push_back("probe after swap " + std::to_string(s) +
                               " answered on an older store");
    } else {
      swap_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      swap_cpu_ms_.push_back(static_cast<double>(tick_ns) / 1e6);
    }
    probes_.emplace_back(art_.appends[s].key, probe);
    for (auto& change : DiffSnapshots(*before, *after)) {
      reload_changes_.push_back(
          {change.first, {after->version(), std::move(change.second)}});
    }
    writer_cpu_ += ThreadCpuNs() - cpu_start;
  }
}

std::vector<os::serving::ServingNode*> Run::Nodes() const {
  if (side_.cluster == nullptr) return {side_.node.get()};
  std::vector<os::serving::ServingNode*> nodes;
  for (size_t i = 0; i < side_.cluster->num_shards(); ++i) {
    nodes.push_back(side_.cluster->shard(i));
  }
  return nodes;
}

bool Run::TickSide() {
  std::vector<os::serving::ServingNode*> nodes = Nodes();
  std::vector<std::shared_ptr<const os::store::StoreSnapshot>> before;
  for (auto* node : nodes) before.push_back(node->snapshot());
  const int64_t cpu0 = ThreadCpuNs();
  if (reload_replay_ != nullptr) {
    if (!reload_replay_->Tick(++tick_id_)) Wrong("store refresh failed");
  }
  for (auto& refresher : refreshers_) {
    if (!refresher->TickOnce().ok()) Wrong("store refresh failed");
  }
  last_tick_cpu_ns_ = ThreadCpuNs() - cpu0;
  bool swapped = false;
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto after = nodes[i]->snapshot();
    if (after->version() < before[i]->version()) {
      Wrong("store version went backwards");
    }
    if (after->version() > before[i]->version()) swapped = true;
    for (auto& change : DiffSnapshots(*before[i], *after)) {
      answers_->Change(change.first, after->version(), change.second);
    }
  }
  return swapped;
}

void Run::EndSwaps() {
  for (size_t s = 0; s < art_.appends.size(); ++s) {
    const std::string& key = art_.appends[s].key;
    Outcome probe;
    Response r;
    int64_t t0 = 0;
    if (wire_) {
      // The server refreshes on its own cadence: probe until the key
      // answers on a newer store. Probes answered while waiting are
      // checked for a well-formed answer only: the server may still be
      // ingesting an earlier tail on another shard.
      auto ask = [&]() {
        Outcome o;
        o.send_ns = NowNs();
        bool ok = WireRoundTrip(fd_, key, next_id_++, &r);
        o.done_ns = NowNs();
        if (ok) {
          RecordAnswer(r, &o);
        } else {
          o.status = Status::kProtocol;
        }
        return o;
      };
      probe = ask();
      wait_probes_.push_back(probe);
      if (probe.status != Status::kOk) return;
      const uint64_t old_version = probe.version;
      const int64_t child_cpu0 = PidCpuNs(child_.pid());
      t0 = NowNs();
      AppendToTail(dir_ + "/tail.tsv", &tail_, art_.appends[s].lines);
      do {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        probe = ask();
        wait_probes_.push_back(probe);
        if (probe.status != Status::kOk) return;
        if (NowNs() - t0 > 20LL * 1000000000LL) {
          Wrong("the server never swapped its store after append " +
                std::to_string(s));
          return;
        }
      } while (probe.version <= old_version);
      swap_ms_.push_back(static_cast<double>(probe.done_ns - t0) / 1e6);
      // The server's CPU over the swap: both shards' refreshers mine the
      // tail, so wait until the server is idle again (its refreshers'
      // polls and the probes cost it microseconds).
      int64_t child_cpu1 = PidCpuNs(child_.pid());
      for (int quiet = 0; quiet < 100; ++quiet) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        const int64_t now_cpu = PidCpuNs(child_.pid());
        const bool idle = now_cpu - child_cpu1 < 300000;
        child_cpu1 = now_cpu;
        if (idle) break;
      }
      swap_cpu_ms_.push_back(static_cast<double>(child_cpu1 - child_cpu0) / 1e6);
      // The in-process twin ingests the same tail; the server must come
      // to answer exactly as the twin does. Store versions are compared
      // by content: a server shard that ingests two tails in one poll
      // swaps once where the twin swaps twice.
      TickSide();
      Outcome twin;
      RecordAnswer(side_.frontend()->Submit(Request(key)), &twin);
      const uint16_t kept = kAnswerDiversified | kAnswerPlan | kAnswerStreaming;
      const int64_t t1 = NowNs();
      while (probe.hash != twin.hash ||
             (probe.flags & kept) != (twin.flags & kept)) {
        if (NowNs() - t1 > 20LL * 1000000000LL) {
          Wrong("wire answer after swap " + std::to_string(s) +
                " differs from the in-process answer");
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        probe = ask();
        if (probe.status != Status::kOk) {
          wait_probes_.push_back(probe);
          return;
        }
      }
      probe.version = twin.version;
      probes_.emplace_back(key, probe);
      continue;
    }
    t0 = NowNs();
    AppendToTail(dir_ + "/tail.tsv", &tail_, art_.appends[s].lines);
    bool swapped = TickSide();
    swap_cpu_ms_.push_back(static_cast<double>(last_tick_cpu_ns_) / 1e6);
    probe.send_ns = NowNs();
    r = side_.frontend()->Submit(Request(key));
    probe.done_ns = NowNs();
    RecordAnswer(r, &probe);
    swap_ms_.push_back(static_cast<double>(probe.done_ns - t0) / 1e6);
    probes_.emplace_back(key, probe);
    if (!swapped) Wrong("append " + std::to_string(s) + " swapped nothing");
  }
}

void Run::CheckOutcome(const std::string& query, const Outcome& outcome,
                       const char* where) {
  if (outcome.status != Status::kOk) return;  // counted as failed already
  const std::string key = NormalizeForCheck(query);
  const Expected& want = answers_->Get(key, outcome.version);
  const bool diversified = (outcome.flags & kAnswerDiversified) != 0;
  if (diversified != want.diversified || outcome.hash != want.hash) {
    Wrong(std::string(where) + ": \"" + query + "\" v" +
          std::to_string(outcome.version) +
          (diversified != want.diversified
               ? " diversified flag differs from the reference"
               : " ranking differs from the reference"));
    ++failed_;
    return;
  }
  if (cold_ && !(outcome.flags & kAnswerStreaming)) {
    Wrong(std::string(where) + ": \"" + query +
          "\" was not served by the streaming cold path");
    ++failed_;
    return;
  }
  if (outcome.flags & kAnswerDegraded) {
    Wrong(std::string(where) + ": \"" + query + "\" answered degraded");
    ++failed_;
  }
}

void Run::CheckAll() {
  attempted_ += probes_.size() + wait_probes_.size();
  for (const Outcome& o : wait_probes_) {
    if (o.status != Status::kOk) ++failed_;
  }
  for (const Phase* p : {&warm_, &low_, &high_, &ramp_}) {
    for (size_t i = 0; i < p->sent; ++i) {
      CheckOutcome(queries_[p->arrivals[i].query], p->outcomes[i], "load");
    }
  }
  for (const auto& [query, outcome] : probes_) {
    if (outcome.status != Status::kOk) {
      ++failed_;
      Wrong("probe \"" + query + "\" failed");
      continue;
    }
    CheckOutcome(query, outcome, "probe");
  }
}

double Run::Capacity(const Phase& ramp) const {
  // Sliding windows over the ramp, in send order, of at least 100
  // requests and 50 ms, evaluated every tenth of a window. The capacity
  // is the offered rate at the start of the first window after which
  // every window for three window lengths (or to the end of a ramp cut
  // short) has its p99 over the limit; a failed request misses the limit.
  const double span = spec_.ramp_share * opt_.seconds;
  const double inf = std::numeric_limits<double>::infinity();
  const size_t n = ramp.sent;
  std::vector<double> lat(n);
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = ramp.outcomes[i];
    lat[i] = o.status == Status::kOk
                 ? static_cast<double>(o.done_ns - ramp.Intended(i)) / 1e6
                 : inf;
  }
  auto window_at = [&](size_t end) {
    double rate = RampRate(spec_.ramp_from, spec_.ramp_to, span,
                           ramp.arrivals[end].due_ns);
    return std::max<size_t>(100, static_cast<size_t>(rate * 0.05));
  };
  struct Point {
    size_t start;
    size_t end;
    bool pass;
  };
  std::vector<Point> points;
  for (size_t end = 0; end < n;) {
    size_t w = window_at(end);
    if (end + 1 >= w) {
      size_t start = end + 1 - w;
      std::vector<double> part(lat.begin() + start, lat.begin() + end + 1);
      points.push_back(Point{start, end, Quantile(part, 0.99) <= spec_.limit_ms});
    }
    end += std::max<size_t>(1, w / 10);
  }
  const bool cut = n < ramp.arrivals.size();
  for (size_t p = 0; p < points.size(); ++p) {
    if (points[p].pass) continue;
    const size_t horizon = points[p].end + 3 * window_at(points[p].end);
    bool sustained = cut || horizon < n;
    for (size_t q = p; q < points.size() && points[q].end <= horizon; ++q) {
      if (points[q].pass) {
        sustained = false;
        break;
      }
    }
    if (sustained) {
      return RampRate(spec_.ramp_from, spec_.ramp_to, span,
                      ramp.arrivals[points[p].start].due_ns);
    }
  }
  return spec_.ramp_to;
}

ReplayStack Run::MakeReplayStack() const {
  const os::pipeline::Testbed& tb = *side_.testbed;
  ReplayStack stack;
  stack.searcher = &tb.searcher();
  stack.snippets = &tb.snippets();
  stack.analyzer = &tb.analyzer();
  stack.documents = &tb.corpus().store;
  stack.params = BenchParams();
  if (side_.cluster != nullptr) {
    os::cluster::ShardedCluster* cluster = side_.cluster.get();
    stack.router = &cluster->router();
    stack.snapshot_for = [cluster](const std::string& key) {
      return cluster->shard(cluster->router().OwnerOf(key))->snapshot();
    };
  } else {
    os::serving::ServingNode* node = side_.node.get();
    stack.snapshot_for = [node](const std::string&) {
      return node->snapshot();
    };
  }
  return stack;
}

void Run::ParseServerLog() {
  // `optselect serve --listen` prints its counters when it stops: the
  // net line, then the serving and per-shard tables.
  std::istringstream in(server_log_);
  std::string line;
  double completed = 0, dedup = 0, routed_total = 0, routed_max = 0;
  bool shards = false;
  while (std::getline(in, line)) {
    auto value = [&](const char* key) {
      return std::atof(line.c_str() + std::strlen(key));
    };
    if (line.rfind("net: ", 0) == 0) {
      unsigned long long v[7] = {0};
      std::sscanf(line.c_str(),
                  "net: %llu conns accepted (%llu rejected), %llu requests, "
                  "%llu responses, %llu shed, %llu protocol errors",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5]);
      if (v[4] + v[5] > 0) {
        Wrong("the server shed or refused requests (" + line + ")");
      }
      routed_total = routed_max = 0;
      shards = false;
    } else if (line.rfind("completed ", 0) == 0) {
      completed = value("completed ");
    } else if (line.rfind("cache hit rate ", 0) == 0) {
      cache_hit_ratio_ = value("cache hit rate ");
    } else if (line.rfind("mean batch ", 0) == 0) {
      batch_mean_ = value("mean batch ");
    } else if (line.rfind("batch dedup hits ", 0) == 0) {
      dedup = value("batch dedup hits ");
    } else if (line.rfind("shard ", 0) == 0 || (shards && line[0] == '-')) {
      shards = true;  // the per-shard table's header and rule
    } else if (shards && !line.empty() && line[0] >= '0' && line[0] <= '9') {
      unsigned long long shard = 0, routed = 0;
      if (std::sscanf(line.c_str(), "%llu %llu", &shard, &routed) == 2) {
        routed_total += static_cast<double>(routed);
        routed_max = std::max(routed_max, static_cast<double>(routed));
      }
    } else {
      shards = false;
    }
  }
  dedup_ratio_ = completed > 0 ? dedup / completed : 0.0;
  shard_share_max_ = routed_total > 0 ? routed_max / routed_total : 1.0;
}

void Run::ReplayRequests() {
  // Layer self times per request: on-path from the sampled requests of
  // the traced low-rate phase, replayed along the path each one took;
  // off-path from every stored query (plan, streaming and, without
  // plans, materialized selection) and from unstored queries
  // (passthrough), for the layers the workload's own requests skip.
  constexpr uint64_t kOffPath = 1ULL << 40;
  constexpr size_t kMaxSample = 2000;
  const bool cached = !cold_;
  RequestReplayer replayer(MakeReplayStack(), &request_log_);
  auto path_of = [](const Outcome& o) {
    if (o.flags & (kAnswerCacheHit | kAnswerDedup)) return Path::kHit;
    if (o.flags & kAnswerPlan) return Path::kPlan;
    if (o.flags & kAnswerStreaming) return Path::kStream;
    if (o.flags & kAnswerDiversified) return Path::kMaterialized;
    return Path::kPassthrough;
  };
  const size_t stride = std::max<size_t>(1, low_.sent / kMaxSample);
  std::vector<size_t> sample;
  for (size_t i = 0; i < low_.sent; i += stride) {
    if (low_.outcomes[i].status == Status::kOk) sample.push_back(i);
  }
  for (size_t i : sample) {
    const std::string& q = queries_[low_.arrivals[i].query];
    const Expected& want = answers_->Get(NormalizeForCheck(q), 0);
    os::serving::Response prefill;
    prefill.ok = true;
    prefill.diversified = want.diversified;
    prefill.ranking.assign(want.ranking.begin(), want.ranking.end());
    replayer.Prefill(q, prefill);
  }
  ReplayStack live = MakeReplayStack();
  for (size_t i : sample) {
    const Outcome& o = low_.outcomes[i];
    const std::string& q = queries_[low_.arrivals[i].query];
    const Path path = path_of(o);
    std::vector<uint32_t> ranking =
        replayer.Replay(i + 1, q, path, cached, wire_);
    // A computed replay must reproduce the answer of the store it ran on
    // (under reload_zipf that can be newer than the sampled answer's).
    const std::string key = NormalizeForCheck(q);
    if (path != Path::kHit &&
        HashRanking(ranking) !=
            answers_->Get(key, live.snapshot_for(key)->version()).hash) {
      Wrong("replay of \"" + q + "\" did not reproduce the served ranking");
    }
  }
  // Off-path probes.
  uint64_t probe = kOffPath;
  const auto& initial = answers_->initial();
  const std::vector<std::string>& stored = art_.stored;
  for (const std::string& key : stored) {
    auto entry = live.snapshot_for(key)->Find(key);
    if (entry && entry.HasCompatiblePlan(kCandidates, kThresholdC)) {
      replayer.Replay(probe++, key, Path::kPlan, true, true, true);
    } else {
      replayer.Replay(probe++, key, Path::kMaterialized, true, true, true);
    }
    replayer.Replay(probe++, key, Path::kStream, true, true, true);
  }
  size_t unstored = 0;
  for (const std::string& q : art_.population) {
    if (unstored >= stored.size()) break;
    if (initial.Find(q) != nullptr) continue;
    replayer.Replay(probe++, q, Path::kPassthrough, true, true, true);
    ++unstored;
  }

  // Per request, per layer self time.
  const auto& spans = request_log_.spans();
  std::vector<int64_t> self = request_log_.SelfTimes();
  std::map<uint64_t, std::map<std::string, double>> per_request;
  std::map<uint64_t, double> replayed_ns;
  for (size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].parent < 0) continue;  // the request root
    per_request[spans[s].request][spans[s].name] += self[s];
    replayed_ns[spans[s].request] += self[s];
  }
  std::map<std::string, std::vector<double>> on, off;
  for (const auto& [request, layers] : per_request) {
    auto& into = request < kOffPath ? on : off;
    for (const auto& [name, ns] : layers) into[name].push_back(ns / 1e3);
  }
  for (auto* into : {&on, &off}) {
    for (const auto& [name, values] : *into) {
      if (layer_us_.count(name) == 0 || (into == &on && values.size() >= 20)) {
        layer_us_[name] = Median(values);
      }
    }
  }

  // Handoff: the part of each sampled request's time inside the serving
  // call (send to answer) that no replayed layer accounts for.
  std::vector<double> handoff, replayed, lateness;
  for (size_t i : sample) {
    const Outcome& o = low_.outcomes[i];
    double observed = static_cast<double>(o.done_ns - o.send_ns) / 1e3;
    handoff.push_back(observed - replayed_ns[i + 1] / 1e3);
    replayed.push_back(replayed_ns[i + 1] / 1e3);
    lateness.push_back(static_cast<double>(o.send_ns - low_.Intended(i)) / 1e3);
  }
  const double traced_p50_us = Quantile(low_.LatenciesMs(), 0.5) * 1e3;
  handoff_us_ = Median(handoff);
  std::fprintf(stderr,
               "servebench: attribution at the low rate: traced p50 %.2f us = "
               "blocking-path self %.2f + handoff %.2f + send lateness %.2f "
               "+ unattributed %.2f us (%zu sampled requests)\n",
               traced_p50_us, Median(replayed), handoff_us_, Median(lateness),
               traced_p50_us - Median(replayed) - handoff_us_ - Median(lateness),
               sample.size());
  for (const auto& [name, values] : on) {
    std::fprintf(stderr, "servebench:   on-path %-22s median %.3f us (%zu)\n",
                 name.c_str(), Median(values), values.size());
  }

  // Idle round trip over the wire minus the same request in process.
  std::vector<double> rtt_minus_local;
  std::unique_ptr<os::net::NetServer> server;
  uint16_t port = port_;
  if (!wire_) {
    os::net::NetServerConfig sc;
    server = std::make_unique<os::net::NetServer>(side_.frontend(), sc);
    if (!server->Start()) Fatal("cannot start the in-process wire server");
    port = server->port();
  }
  int fd = wire_ ? fd_ : ConnectLoopback(port);
  if (fd < 0) Fatal("cannot connect for the round-trip probe");
  for (size_t k = 0; k < 400; ++k) {
    const std::string& q = queries_[low_.arrivals[sample[k % sample.size()]].query];
    int64_t t0 = NowNs();
    Outcome near;
    near.send_ns = t0;
    RecordAnswer(side_.frontend()->Submit(Request(q)), &near);
    int64_t t1 = NowNs();
    Response r;
    Outcome far;
    far.send_ns = t1;
    bool ok = WireRoundTrip(fd, q, next_id_++, &r);
    int64_t t2 = NowNs();
    if (ok) RecordAnswer(r, &far); else far.status = Status::kProtocol;
    near.done_ns = t1;
    far.done_ns = t2;
    probes_.emplace_back(q, near);
    probes_.emplace_back(q, far);
    rtt_minus_local.push_back((t2 - t1 - (t1 - t0)) / 1e3);
  }
  if (!wire_) {
    close(fd);
    server->Stop();
  }
  rtt_over_local_us_ = Median(rtt_minus_local);
  materialized_ratio_ = replayer.offered > 0
                            ? static_cast<double>(replayer.materialized) /
                                  static_cast<double>(replayer.offered)
                            : 0.0;
  const double wire_requests =
      std::max<double>(1.0, static_cast<double>(replayer.wire_requests));
  req_bytes_ = static_cast<double>(replayer.request_bytes) / wire_requests;
  resp_bytes_ = static_cast<double>(replayer.response_bytes) / wire_requests;
}

void Run::TraceLayers(std::map<std::string, Metric>* m) {
  auto layer_us = [&](const std::string& name) { return layer_us_[name]; };

  auto span_ms = [](const SpanLog& log, const char* name) {
    std::vector<double> v;
    for (const auto& s : log.spans()) {
      if (std::strcmp(s.name, name) == 0) v.push_back((s.end_ns - s.start_ns) / 1e6);
    }
    return Median(v);
  };
  auto& out = *m;
  out["serving.handoff_us"] = {handoff_us_, "us"};
  out["serving.normalize_us"] = {layer_us("serving.normalize"), "us"};
  out["serving.cache_get_us"] = {layer_us("serving.cache_get"), "us"};
  out["serving.cache_hit_ratio"] = {cache_hit_ratio_, "ratio"};
  out["serving.batch_mean"] = {batch_mean_, "count"};
  out["serving.dedup_ratio"] = {dedup_ratio_, "ratio"};
  out["serving.reload_us"] = {span_ms(reload_log_, "serving.reload") * 1e3, "us"};
  out["serving.invalidated_per_swap"] = {
      reload_replay_ ? Mean(reload_replay_->invalidated) : 0.0, "count"};
  out["cluster.route_us"] = {layer_us("cluster.route"), "us"};
  out["cluster.shard_share_max"] = {shard_share_max_, "ratio"};
  out["store.find_us"] = {layer_us("store.find"), "us"};
  out["store.map_ms"] = {span_ms(setup_log_, "store.map"), "ms"};
  out["store.mapped_mib"] = {
      static_cast<double>(side_.mapped->mapped_bytes()) / (1024.0 * 1024.0),
      "MiB"};
  out["store.mine_delta_ms"] = {span_ms(reload_log_, "store.mine_delta"), "ms"};
  out["store.build_snapshot_ms"] = {
      span_ms(reload_log_, "store.build_snapshot"), "ms"};
  out["querylog.poll_ms"] = {span_ms(reload_log_, "querylog.poll"), "ms"};
  out["pipeline.testbed_ms"] = {span_ms(setup_log_, "pipeline.testbed"), "ms"};
  out["text.analyze_us"] = {layer_us("text.analyze"), "us"};
  out["index.search_us"] = {layer_us("index.search"), "us"};
  out["index.snippet_us"] = {layer_us("index.snippet"), "us"};
  out["pipeline.utility_row_us"] = {layer_us("pipeline.utility_row"), "us"};
  out["pipeline.materialized_ratio"] = {materialized_ratio_, "ratio"};
  out["core.stream_scan_us"] = {layer_us("core.stream_scan"), "us"};
  out["core.stream_finalize_us"] = {layer_us("core.stream_finalize"), "us"};
  out["core.plan_select_us"] = {layer_us("core.plan_select"), "us"};
  out["core.assemble_us"] = {layer_us("core.assemble"), "us"};
  out["net.encode_us"] = {layer_us("net.encode"), "us"};
  out["net.decode_us"] = {layer_us("net.decode"), "us"};
  out["net.req_bytes"] = {req_bytes_, "bytes"};
  out["net.resp_bytes"] = {resp_bytes_, "bytes"};
  out["net.rtt_over_local_us"] = {rtt_over_local_us_, "us"};
  out["gen.lateness_ms"] = {Quantile(high_.LatenessMs(), 0.99), "ms"};
}

int Run::Main() {
  if (!MakeDirs(dir_)) Fatal("cannot create " + dir_);
  // Under reload_zipf, one append per swap period of the load; otherwise
  // one swap per stored query after the load.
  const size_t appends =
      reload_ ? static_cast<size_t>(opt_.seconds / spec_.swap_period_s) + 2
              : kTopics;
  art_ = Prepare(dir_, /*plans=*/!cold_, opt_.seed, appends);
  MakeSchedules();

  // ---- set-up, repeated (once when traced); the last one serves.
  const int64_t rss_base_kib = StatusKib(0, "VmRSS");
  std::vector<double> setups;
  for (int rep = 0; rep < (opt_.trace ? 1 : kSetupReps); ++rep) {
    if (wire_) {
      if (child_.running()) child_.Stop();
      setups.push_back(SetupWire(rep));
    } else {
      side_ = Side{};
      setups.push_back(SetupInProcess(&side_));
    }
  }
  if (wire_) {
    fd_ = ConnectLoopback(port_);
    if (fd_ < 0) Fatal("cannot connect to optselect serve");
  }
  if (reload_) AddRefreshers();

  // ---- load. Untraced: warm-up, low rate, high rate, capacity ramp.
  // Traced: warm-up, high rate (counters, generator lateness), then the
  // low rate whose requests are replayed layer by layer.
  std::thread writer;
  if (reload_) writer = std::thread([this] { ReloadWriter(); });
  RunPhase(&warm_, BacklogCap{});
  const int64_t child_low0 = wire_ ? PidCpuNs(child_.pid()) : 0;
  const int64_t writer_low0 = writer_cpu_.load() - writer_tick_cpu_.load();
  if (!opt_.trace) RunPhase(&low_, BacklogCap{});
  const int64_t child_low1 = wire_ ? PidCpuNs(child_.pid()) : 0;
  const int64_t writer_low1 = writer_cpu_.load() - writer_tick_cpu_.load();
  os::cluster::ClusterStats cluster0;
  os::serving::ServingStats node0;
  if (side_.cluster) cluster0 = side_.cluster->Stats();
  if (side_.node) node0 = side_.node->Stats();
  const int64_t child_cpu0 = wire_ ? PidCpuNs(child_.pid()) : 0;
  const int64_t writer_extra0 = writer_cpu_.load() - writer_tick_cpu_.load();
  RunPhase(&high_, BacklogCap{});
  const int64_t child_cpu1 = wire_ ? PidCpuNs(child_.pid()) : 0;
  const int64_t writer_extra1 = writer_cpu_.load() - writer_tick_cpu_.load();
  if (!wire_) {
    os::serving::ServingStats a = side_.cluster ? cluster0.total : node0;
    os::cluster::ClusterStats cluster1;
    if (side_.cluster) cluster1 = side_.cluster->Stats();
    os::serving::ServingStats b =
        side_.cluster ? cluster1.total : side_.node->Stats();
    double hits = static_cast<double>(b.cache_hits - a.cache_hits);
    double misses = static_cast<double>(b.cache_misses - a.cache_misses);
    double batches = static_cast<double>(b.batches - a.batches);
    double done = static_cast<double>(b.completed - a.completed);
    cache_hit_ratio_ = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    batch_mean_ = batches > 0 ? (b.batched_requests - a.batched_requests) / batches
                              : 0.0;
    dedup_ratio_ = done > 0 ? (b.batch_dedup_hits - a.batch_dedup_hits) / done : 0.0;
    if (side_.cluster) {
      double total = 0, top = 0;
      for (size_t i = 0; i < cluster1.router.per_shard.size(); ++i) {
        double d = static_cast<double>(cluster1.router.per_shard[i] -
                                       cluster0.router.per_shard[i]);
        total += d;
        top = std::max(top, d);
      }
      shard_share_max_ = total > 0 ? top / total : 1.0;
    }
  }
  if (opt_.trace) {
    RunPhase(&low_, BacklogCap{});
  } else {
    const double limit_s = spec_.limit_ms / 1e3;
    const double span = spec_.ramp_share * opt_.seconds;
    // The ramp stops once the backlog is several latency limits deep or
    // sends fall that far behind: the knee is behind it. The wire
    // server's queues hold 1024 per shard, so its backlog stays below
    // that (a refused request would be a failure).
    BacklogCap cap;
    cap.max_unanswered = [&](size_t i) {
      double rate = RampRate(spec_.ramp_from, spec_.ramp_to, span,
                             ramp_.arrivals[i].due_ns);
      double deep = std::max(64.0, 4.0 * rate * limit_s);
      return static_cast<size_t>(wire_ ? std::min(deep, 900.0) : deep);
    };
    cap.late_stop_ns = static_cast<int64_t>(4 * limit_s * 1e9);
    RunPhase(&ramp_, cap);
  }
  const double peak_mib =
      wire_ ? static_cast<double>(StatusKib(child_.pid(), "VmHWM")) / 1024.0
            : static_cast<double>(StatusKib(0, "VmHWM") - rss_base_kib) / 1024.0;
  if (reload_) {
    writer_stop_ = true;
    writer.join();
  }

  // ---- references (built after the load so they cannot disturb it).
  // The wire workload's in-process twin: same store, same testbed, same
  // cluster shape as the server process.
  if (wire_) BuildSide(&side_);
  const os::pipeline::Testbed* tb = side_.testbed.get();
  OracleStack stack{&tb->searcher(), &tb->snippets(), &tb->analyzer(),
                    &tb->corpus().store, kCandidates, kThresholdC, kLambda,
                    kDepth};
  answers_ = std::make_unique<Answers>(stack, side_.mapped->Materialize());
  for (auto& [key, change] : reload_changes_) {
    answers_->Change(key, change.first, change.second);
  }
  if (wire_) CheckWireAgainstTwin();

  // Layer replay runs on the store the load was answered from.
  if (opt_.trace) ReplayRequests();

  // ---- store swaps after the load (reload_zipf swapped under it).
  if (!reload_) {
    AddRefreshers();
    EndSwaps();
  }
  for (const std::string& e : writer_errors_) Wrong(e);

  if (wire_) {
    // The server prints its counters when it stops.
    if (fd_ >= 0) close(fd_);
    if (!child_.Stop()) Wrong("optselect serve did not exit cleanly");
    server_log_ = ReadFile(dir_ + "/serve-" +
                           std::to_string(opt_.trace ? 0 : kSetupReps - 1) +
                           ".log");
    ParseServerLog();
  }
  std::map<std::string, Metric> m;
  if (opt_.trace) TraceLayers(&m);
  CheckAll();

  // ---- metrics.
  const double served = static_cast<double>(high_.sent - high_.Failed());
  const double cpu_ns =
      wire_ ? static_cast<double>(child_cpu1 - child_cpu0)
            : static_cast<double>(high_.process_cpu_ns - high_.generator_cpu_ns -
                                  (writer_extra1 - writer_extra0));
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {Median(setups), "s"};
  e2e["p50_ms.low"] = {Quantile(low_.LatenciesMs(), 0.50), "ms"};
  e2e["p99_ms.high"] = {Quantile(high_.LatenciesMs(), 0.99), "ms"};
  if (!opt_.trace) e2e["capacity_qps"] = {Capacity(ramp_), "1/s"};
  e2e["cpu_us_per_req.high"] = {cpu_ns / 1e3 / std::max(1.0, served), "us"};
  {
    const double low_served = static_cast<double>(low_.sent - low_.Failed());
    const double low_cpu_ns =
        wire_ ? static_cast<double>(child_low1 - child_low0)
              : static_cast<double>(low_.process_cpu_ns - low_.generator_cpu_ns -
                                    (writer_low1 - writer_low0));
    e2e["cpu_us_per_req.low"] = {low_cpu_ns / 1e3 / std::max(1.0, low_served),
                                 "us"};
  }
  e2e["peak_rss_mib"] = {peak_mib, "MiB"};
  e2e["swap_ms"] = {Median(swap_ms_), "ms"};
  e2e["swap_cpu_ms"] = {Median(swap_cpu_ms_), "ms"};
  // Every end-to-end figure; run.py keeps the ones BENCHMARK.json gates.
  if (!opt_.trace) m = e2e;

  std::fprintf(stderr, "servebench: %s seed %llu%s:",
               spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
               opt_.trace ? " (traced)" : "");
  for (const auto& [name, metric] : e2e) {
    std::fprintf(stderr, " %s=%.6g", name.c_str(), metric.value);
  }
  std::fprintf(stderr, "\nservebench: setups");
  for (double s : setups) std::fprintf(stderr, " %.3f", s);
  {
    auto lo = low_.LatenciesMs();
    auto hi = high_.LatenciesMs();
    std::fprintf(stderr,
                 " s; sent low %zu high %zu ramp %zu/%zu; generator lateness "
                 "p99 low %.3f high %.3f ramp %.3f ms; swaps %zu\n"
                 "servebench: latency ms low p50 %.4f p90 %.4f p99 %.4f | "
                 "high p50 %.4f p90 %.4f p99 %.4f\n",
                 low_.sent, high_.sent, ramp_.sent, ramp_.arrivals.size(),
                 Quantile(low_.LatenessMs(), 0.99),
                 Quantile(high_.LatenessMs(), 0.99),
                 Quantile(ramp_.LatenessMs(), 0.99), swap_ms_.size(),
                 Quantile(lo, 0.5), Quantile(lo, 0.9), Quantile(lo, 0.99),
                 Quantile(hi, 0.5), Quantile(hi, 0.9), Quantile(hi, 0.99));
  }
  {
    // Diagnostics: the low phase's median latency per eighth of the phase.
    std::fprintf(stderr, "servebench: low p50 by eighth:");
    for (int k = 0; k < 8; ++k) {
      std::vector<double> part;
      for (size_t i = low_.sent * k / 8; i < low_.sent * (k + 1) / 8; ++i) {
        if (low_.outcomes[i].status == Status::kOk) {
          part.push_back((low_.outcomes[i].done_ns - low_.Intended(i)) / 1e6);
        }
      }
      std::fprintf(stderr, " %.4f", Quantile(part, 0.5));
    }
    std::fprintf(stderr, " ms\n");
  }
  {
    // The make-up of the answers: which path served them.
    double n = 0, hit = 0, plan = 0, stream = 0, pass = 0;
    for (const Phase* p : {&warm_, &low_, &high_, &ramp_}) {
      for (size_t i = 0; i < p->sent; ++i) {
        const Outcome& o = p->outcomes[i];
        if (o.status != Status::kOk) continue;
        ++n;
        if (o.flags & (kAnswerCacheHit | kAnswerDedup)) {
          ++hit;
        } else if (o.flags & kAnswerPlan) {
          ++plan;
        } else if (o.flags & kAnswerStreaming) {
          ++stream;
        } else if (!(o.flags & kAnswerDiversified)) {
          ++pass;
        }
      }
    }
    std::vector<double> rq;
    for (const std::string& key : art_.stored) {
      rq.push_back(static_cast<double>(answers_->Get(key, 0).candidates));
    }
    std::fprintf(stderr,
                 "servebench: answers by path: cache hit %.4f, plan %.4f, "
                 "streaming %.4f, passthrough %.4f of %.0f; achieved |R_q| "
                 "over the %zu stored queries: mean %.1f, min %.0f, max %.0f\n",
                 hit / std::max(1.0, n), plan / std::max(1.0, n),
                 stream / std::max(1.0, n), pass / std::max(1.0, n), n,
                 rq.size(), Mean(rq), Quantile(rq, 0.0), Quantile(rq, 1.0));
  }
  std::fprintf(stderr, "servebench: attempted %llu failed %llu wrong %llu\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(wrong_));

  if (opt_.trace) {
    // Spans are written when the run ends.
    const std::string traces = opt_.work + "/../traces";
    MakeDirs(traces);
    std::string tsv = "log\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n";
    setup_log_.AppendTsv("setup", &tsv);
    request_log_.AppendTsv("request", &tsv);
    reload_log_.AppendTsv("reload", &tsv);
    std::ofstream(traces + "/" + spec_.name + "-seed" +
                  std::to_string(opt_.seed) + ".tsv")
        << tsv;
  }
  reload_replay_.reset();
  refreshers_.clear();
  side_ = Side{};
  PrintResult(wrong_ == 0, attempted_, failed_, m);
  return wrong_ == 0 ? 0 : 1;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (s.name == name) return true;
  }
  return false;
}

int RunWorkload(const RunOptions& options) {
  Run run(options);
  return run.Main();
}

}  // namespace servebench
