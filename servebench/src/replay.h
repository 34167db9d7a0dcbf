// Per-layer attribution for the traced run (--trace 1).
//
// Spans are recorded in the benchmark's own code, around calls into each
// layer's public functions: a sample of the workload's requests is
// replayed, one at a time, along the path the server reported taking
// (cache hit, compiled plan, streaming cold path, passthrough), and the
// store refresh path is replayed step by step. Each span has a name, a
// start and an end, its parent, and the id of the request it belongs
// to; spans stay in memory and are written out when the run ends. A
// layer's self time is its span's duration minus its children's.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/query_router.h"
#include "core/optselect.h"
#include "core/select_view.h"
#include "core/streaming_select.h"
#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "pipeline/diversification_pipeline.h"
#include "querylog/log_ingestor.h"
#include "querylog/query_log.h"
#include "querylog/session_segmenter.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "serving/result_cache.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "text/analyzer.h"

namespace servebench {

/// In-memory span log of one thread.
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< string literal
    int64_t parent;    ///< index of the enclosing span, -1 for a root
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens a span inside the innermost open one; returns its index.
  size_t Open(const char* name, uint64_t request);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span (duration minus its direct children), ns.
  std::vector<int64_t> SelfTimes() const;
  /// Appends the spans as TSV rows: log, index, parent, request, name,
  /// start_ns, end_ns.
  void AppendTsv(const std::string& log_name, std::string* out) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log->Open(name, request)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// The path a request took through the server.
enum class Path { kHit, kPlan, kStream, kMaterialized, kPassthrough };

/// The live serving components a replay calls into.
struct ReplayStack {
  const optselect::index::Searcher* searcher = nullptr;
  const optselect::index::SnippetExtractor* snippets = nullptr;
  const optselect::text::Analyzer* analyzer = nullptr;
  const optselect::corpus::DocumentStore* documents = nullptr;
  optselect::pipeline::PipelineParams params;
  /// The router of a sharded deployment; null for a single node, where
  /// off-path probes time the owner-shard hash a two-shard router would
  /// run instead.
  const optselect::cluster::QueryRouter* router = nullptr;
  /// The snapshot serving a normalized key.
  std::function<std::shared_ptr<const optselect::store::StoreSnapshot>(
      const std::string&)>
      snapshot_for;
};

/// Replays single requests through the layers' public functions.
class RequestReplayer {
 public:
  RequestReplayer(ReplayStack stack, SpanLog* log);

  /// Makes a later kHit replay of `raw` find `answer` in the replay's
  /// own result cache.
  void Prefill(const std::string& raw,
               const optselect::serving::Response& answer);

  /// Replays `raw` along `path` under request id `request`. `cached`:
  /// the server looks the query up in its result cache first. `wire`:
  /// the request and its answer also cross the wire codec. Returns the
  /// ranking the replay produced.
  std::vector<uint32_t> Replay(uint64_t request, const std::string& raw,
                               Path path, bool cached, bool wire,
                               bool off_path = false);

  uint64_t offered = 0;       ///< candidates offered to streaming scans
  uint64_t materialized = 0;  ///< of those, surrogates extracted
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  uint64_t wire_requests = 0;

 private:
  ReplayStack stack_;
  SpanLog* log_;
  uint64_t fingerprint_;
  optselect::serving::ShardedLruCache<optselect::serving::Response> cache_;
  optselect::core::OptSelectDiversifier optselect_;
  optselect::core::SelectScratch scratch_;
  optselect::core::StreamingTopK stream_;
};

/// StoreRefresher::TickOnce, step by step, for one or more nodes (one
/// per shard, each keeping only its keys) fed from one log tail.
class ReloadReplayer {
 public:
  ReloadReplayer(std::vector<optselect::serving::ServingNode*> nodes,
                 std::vector<std::function<bool(const std::string&)>> keep,
                 const ReplayStack& stack,
                 const optselect::querylog::QueryLog& initial_log,
                 const std::string& tail_path, bool compile_plans,
                 SpanLog* log);

  /// One refresh. Returns false when the tail could not be read.
  bool Tick(uint64_t request);

  std::vector<double> invalidated;  ///< per swap

 private:
  std::vector<optselect::serving::ServingNode*> nodes_;
  std::vector<std::function<bool(const std::string&)>> keep_;
  ReplayStack stack_;
  SpanLog* log_;
  optselect::store::StoreBuilderOptions builder_;
  optselect::querylog::LogIngestor ingestor_;
  optselect::querylog::SessionSegmenter segmenter_;
  std::unique_ptr<optselect::recommend::ShortcutsRecommender> recommender_;
  std::unique_ptr<optselect::recommend::AmbiguityDetector> detector_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
