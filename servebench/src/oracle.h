// Independent answers every served ranking is checked against.
//
// Diversified queries: the benchmark's own, naive implementation of
// Algorithm 2 under the Eq. 7 objective — plain loops and std::sort, no
// heaps, no compiled plans, no streaming bound. Its inputs come straight
// from the retrieval stack (Analyzer::AnalyzeReadOnly,
// Searcher::SearchTerms, SnippetExtractor::ExtractVector) and from the
// stored entry's specializations and R_q′ surrogates; the utilities and
// the overall score are computed here. Passthrough queries: the DPH
// top-k of a direct Searcher::SearchTerms call.

#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "store/diversification_store.h"
#include "text/analyzer.h"

namespace servebench {

/// Retrieval components and serving parameters the reference uses.
struct OracleStack {
  const optselect::index::Searcher* searcher = nullptr;
  const optselect::index::SnippetExtractor* snippets = nullptr;
  const optselect::text::Analyzer* analyzer = nullptr;
  const optselect::corpus::DocumentStore* documents = nullptr;
  size_t num_candidates = 200;
  double threshold_c = 0.3;
  double lambda = 0.15;
  size_t k = 10;
};

/// The answer a correct server gives for one query.
struct Expected {
  bool diversified = false;
  std::vector<uint32_t> ranking;
  uint64_t hash = 0;
  /// |R_q| actually retrieved (the candidate count selection ran over).
  size_t candidates = 0;
};

/// Naive Algorithm 2: `relevance` is P(d|q) per candidate in R_q order,
/// `utility` the thresholded n×m matrix Ũ(d|R_q′) (row-major),
/// `probability` P(q′|q). Returns the picked candidate indices in SERP
/// order.
std::vector<size_t> NaiveOptSelect(const std::vector<double>& relevance,
                                   const std::vector<double>& utility,
                                   const std::vector<double>& probability,
                                   size_t k, double lambda);

/// Expected answer for a normalized query: diversified over `entry`
/// when it is non-null (a stored ambiguous query), else passthrough.
Expected ExpectedAnswer(const OracleStack& stack,
                        const std::string& normalized,
                        const optselect::store::StoredEntry* entry);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
