#include "replay.h"

#include <algorithm>

#include "common.h"
#include "core/utility.h"
#include "net/wire.h"
#include "pipeline/candidate_stream.h"
#include "serving/cache_key.h"
#include "util/strings.h"

namespace servebench {

namespace os = optselect;

size_t SpanLog::Open(const char* name, uint64_t request) {
  int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, parent, request, NowNs(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

void SpanLog::AppendTsv(const std::string& log_name, std::string* out) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    *out += log_name + '\t' + std::to_string(i) + '\t' +
            std::to_string(s.parent) + '\t' + std::to_string(s.request) +
            '\t' + s.name + '\t' + std::to_string(s.start_ns) + '\t' +
            std::to_string(s.end_ns) + '\n';
  }
}

RequestReplayer::RequestReplayer(ReplayStack stack, SpanLog* log)
    : stack_(std::move(stack)),
      log_(log),
      fingerprint_(os::serving::ParamsFingerprint(stack_.params)),
      cache_(os::serving::ResultCacheOptions{}) {}

void RequestReplayer::Prefill(const std::string& raw,
                              const os::serving::Response& answer) {
  cache_.Put(os::serving::MakeCacheKey(os::serving::NormalizeQuery(raw),
                                       fingerprint_),
             std::make_shared<const os::serving::Response>(answer));
}

std::vector<uint32_t> RequestReplayer::Replay(uint64_t request,
                                              const std::string& raw,
                                              Path path, bool cached,
                                              bool wire, bool off_path) {
  namespace net = os::net;
  const os::pipeline::PipelineParams& params = stack_.params;
  ScopedSpan root(log_, "request", request);
  os::serving::Request incoming(raw, request);
  if (wire) {
    // Client encode, then the server's deframe + decode.
    std::string frame;
    {
      ScopedSpan span(log_, "net.encode", request);
      frame = net::EncodeRequestFrame(incoming);
    }
    request_bytes += frame.size();
    ++wire_requests;
    ScopedSpan span(log_, "net.decode", request);
    net::FrameParser parser;
    parser.Feed(frame.data(), frame.size());
    net::DecodeRequestPayload(parser.Next(), &incoming);
  }
  std::string normalized;
  std::string key;
  {
    ScopedSpan span(log_, "serving.normalize", request);
    normalized = os::serving::NormalizeQuery(incoming.query);
    key = os::serving::MakeCacheKey(normalized, fingerprint_);
  }
  if (stack_.router != nullptr) {
    ScopedSpan span(log_, "cluster.route", request);
    volatile size_t shard = stack_.router->OwnerOf(incoming.query);
    volatile bool replicated = stack_.router->IsReplicated(incoming.query);
    (void)shard;
    (void)replicated;
  } else if (off_path) {
    ScopedSpan span(log_, "cluster.route", request);
    volatile size_t shard = os::store::ShardFilter::OwnerShard(
        os::serving::NormalizeQuery(incoming.query), 2);
    (void)shard;
  }
  os::serving::Response answer;
  answer.ok = true;
  std::shared_ptr<const os::serving::Response> hit;
  if (cached || path == Path::kHit) {
    ScopedSpan span(log_, "serving.cache_get", request);
    hit = cache_.Get(key);
  }
  if (path == Path::kHit && hit != nullptr) {
    answer = *hit;
  } else {
    std::shared_ptr<const os::store::StoreSnapshot> snapshot =
        stack_.snapshot_for(normalized);
    os::store::EntryRef entry;
    {
      ScopedSpan span(log_, "store.find", request);
      entry = snapshot->Find(normalized);
    }
    answer.store_version = snapshot->version();
    if (path == Path::kPlan) {
      os::core::DiversificationView view = entry.PlanView();
      {
        ScopedSpan span(log_, "core.plan_select", request);
        optselect_.SelectInto(view, params.diversify, &scratch_,
                              &scratch_.picks);
      }
      ScopedSpan span(log_, "core.assemble", request);
      answer.ranking = os::pipeline::AssembleRanking(
          entry.PlanDocs(), entry.PlanNumCandidates(), scratch_.picks,
          params.diversify.k, &scratch_.taken);
      answer.diversified = true;
    } else {
      std::vector<os::text::TermId> terms;
      {
        ScopedSpan span(log_, "text.analyze", request);
        terms = stack_.analyzer->AnalyzeReadOnly(normalized);
      }
      os::index::ResultList rq;
      {
        ScopedSpan span(log_, "index.search", request);
        rq = stack_.searcher->SearchTerms(terms, params.num_candidates);
      }
      if (path == Path::kPassthrough || rq.empty()) {
        for (size_t i = 0; i < rq.size() && i < params.diversify.k; ++i) {
          answer.ranking.push_back(rq[i].doc);
        }
      } else if (path == Path::kStream) {
        // The streaming cold path exactly as the node runs it.
        const size_t m = entry.num_specializations();
        std::vector<os::pipeline::SpecializationRef> refs(m);
        std::vector<double> probs(m);
        std::vector<double> row(m);
        {
          ScopedSpan scan(log_, "core.stream_scan", request);
          for (size_t j = 0; j < m; ++j) {
            probs[j] = entry.spec_probability(j);
            refs[j].probability = probs[j];
            refs[j].results = entry.heap_surrogates(j);
            refs[j].spans = entry.spec_spans(j);
          }
          std::vector<double> inv_harmonic =
              os::pipeline::InverseHarmonics(refs);
          os::pipeline::CandidateStream candidates(
              &rq, stack_.snippets, stack_.documents, &terms);
          stream_.Begin(probs.data(), m, params.diversify.k,
                        params.diversify.lambda);
          while (!candidates.Done()) {
            if (stream_.CanPrune(candidates.relevance())) {
              stream_.Skip();
              candidates.Advance();
              continue;
            }
            const os::text::TermVector* doc = nullptr;
            {
              ScopedSpan span(log_, "index.snippet", request);
              doc = &candidates.Materialize();
            }
            {
              ScopedSpan span(log_, "pipeline.utility_row", request);
              os::pipeline::ComputeUtilityRow(*doc, refs, inv_harmonic,
                                              params.threshold_c, row.data());
            }
            stream_.Push(candidates.position(), candidates.relevance(),
                         row.data());
            candidates.Advance();
          }
          offered += rq.size();
          materialized += candidates.materialized();
        }
        {
          ScopedSpan span(log_, "core.stream_finalize", request);
          stream_.Finalize(params.diversify.k, &scratch_.picks);
        }
        ScopedSpan span(log_, "core.assemble", request);
        std::vector<os::DocId> docs;
        docs.reserve(rq.size());
        for (const auto& hit_doc : rq) docs.push_back(hit_doc.doc);
        answer.ranking = os::pipeline::AssembleRanking(
            docs.data(), docs.size(), scratch_.picks, params.diversify.k,
            &scratch_.taken);
        answer.diversified = true;
      } else {
        // Materialize-then-select over the same candidates: the
        // selection kernel of a query whose entry carries no plan.
        os::core::DiversificationInput input;
        os::core::UtilityMatrix utilities;
        {
          ScopedSpan span(log_, "pipeline.materialize", request);
          input.query = normalized;
          input.candidates = os::pipeline::BuildCandidates(
              rq, *stack_.snippets, *stack_.documents, terms);
          input.specializations = entry.ToProfiles();
          os::core::UtilityComputer computer(
              os::core::UtilityComputer::Options{params.threshold_c});
          utilities = computer.Compute(input);
        }
        os::core::DiversificationView view =
            os::core::MakeView(input, utilities, &scratch_);
        {
          ScopedSpan span(log_, "core.plan_select", request);
          optselect_.SelectInto(view, params.diversify, &scratch_,
                                &scratch_.picks);
        }
        ScopedSpan span(log_, "core.assemble", request);
        answer.ranking = os::pipeline::AssembleRanking(input, scratch_.picks,
                                                       params.diversify.k);
        answer.diversified = true;
      }
    }
  }
  if (wire) {
    // Server encode, then the client's deframe + decode.
    std::string frame;
    {
      ScopedSpan span(log_, "net.encode", request);
      frame = net::EncodeResponseFrame(request, answer);
    }
    response_bytes += frame.size();
    ScopedSpan span(log_, "net.decode", request);
    net::FrameParser parser;
    parser.Feed(frame.data(), frame.size());
    net::Frame reply = parser.Next();
    os::serving::Response decoded;
    net::DecodeResponsePayload(reply, &decoded);
    net::UnpackResponseFlags(reply.flags, &decoded);
    return decoded.ranking;
  }
  return answer.ranking;
}

ReloadReplayer::ReloadReplayer(
    std::vector<os::serving::ServingNode*> nodes,
    std::vector<std::function<bool(const std::string&)>> keep,
    const ReplayStack& stack, const os::querylog::QueryLog& initial_log,
    const std::string& tail_path, bool compile_plans, SpanLog* log)
    : nodes_(std::move(nodes)),
      keep_(std::move(keep)),
      stack_(stack),
      log_(log),
      ingestor_(tail_path) {
  // The same state a StoreRefresher builds at construction.
  builder_.compile_plans = compile_plans;
  builder_.plan.num_candidates = stack_.params.num_candidates;
  builder_.plan.threshold_c = stack_.params.threshold_c;
  recommender_ = std::make_unique<os::recommend::ShortcutsRecommender>(
      os::recommend::ShortcutsRecommender::Options{});
  detector_ = std::make_unique<os::recommend::AmbiguityDetector>(
      recommender_.get(), os::recommend::AmbiguityDetector::Options{});
  recommender_->Train(initial_log, segmenter_.Segment(initial_log, nullptr));
  ingestor_.SkipToEnd().IgnoreError();
}

bool ReloadReplayer::Tick(uint64_t request) {
  ScopedSpan root(log_, "refresh", request);
  os::querylog::IngestDelta delta;
  {
    ScopedSpan span(log_, "querylog.poll", request);
    auto polled = ingestor_.Poll();
    if (!polled.ok()) return false;
    delta = std::move(polled).value();
  }
  if (delta.empty()) return true;
  {
    ScopedSpan span(log_, "recommend.train", request);
    recommender_->TrainIncremental(delta.log,
                                   segmenter_.Segment(delta.log, nullptr));
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    auto base = nodes_[i]->snapshot();
    os::store::StoreDelta mined;
    {
      ScopedSpan span(log_, "store.mine_delta", request);
      mined = os::store::MineDelta(*detector_, *stack_.searcher,
                                   *stack_.snippets, *stack_.analyzer,
                                   *stack_.documents, delta.dirty_queries,
                                   builder_, base->store());
    }
    if (keep_[i]) {
      auto dropped = [this, i](const std::string& query) {
        return !keep_[i](optselect::util::NormalizeQueryText(query));
      };
      mined.upserts.erase(
          std::remove_if(mined.upserts.begin(), mined.upserts.end(),
                         [&](const os::store::StoredEntry& e) {
                           return dropped(e.query);
                         }),
          mined.upserts.end());
      mined.removals.erase(std::remove_if(mined.removals.begin(),
                                          mined.removals.end(), dropped),
                           mined.removals.end());
    }
    if (mined.empty()) continue;
    os::store::SnapshotBuildResult built;
    {
      ScopedSpan span(log_, "store.build_snapshot", request);
      built = os::store::BuildSnapshot(base.get(), mined);
    }
    if (built.changed_keys.empty()) continue;
    std::sort(built.changed_keys.begin(), built.changed_keys.end());
    ScopedSpan span(log_, "serving.reload", request);
    auto outcome = nodes_[i]->ReloadStore(built.snapshot, built.changed_keys);
    invalidated.push_back(static_cast<double>(outcome.invalidated));
  }
  return true;
}

}  // namespace servebench
