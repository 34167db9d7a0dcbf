#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "common.h"

namespace servebench {
namespace {

using optselect::text::TermVector;

double Dot(const TermVector& a, const TermVector& b) {
  const auto& x = a.entries();
  const auto& y = b.entries();
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i].first == y[j].first) {
      dot += x[i].second * y[j].second;
      ++i;
      ++j;
    } else if (x[i].first < y[j].first) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot;
}

// cosine(a, b) clamped to [0, 1]; 1 − δ(d, d′) of the utility model.
double Cosine(const TermVector& a, const TermVector& b) {
  if (a.norm() == 0.0 || b.norm() == 0.0) return 0.0;
  double c = Dot(a, b) / (a.norm() * b.norm());
  if (c < 0.0) return 0.0;
  if (c > 1.0) return 1.0;
  return c;
}

double Harmonic(size_t n) {
  double h = 0.0;
  for (size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

// Σ_j P(q′_j|q)·Ũ(d|R_q′_j), accumulated in four stripes (j mod 4) and
// combined pairwise — the summation order the library defines as
// canonical, so that equal inputs give equal bits.
double WeightedSum(const double* row, const std::vector<double>& p) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < p.size(); ++j) acc[j & 3] += p[j] * row[j];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

}  // namespace

std::vector<size_t> NaiveOptSelect(const std::vector<double>& relevance,
                                   const std::vector<double>& utility,
                                   const std::vector<double>& probability,
                                   size_t k_param, double lambda) {
  const size_t n = relevance.size();
  const size_t m = probability.size();
  const size_t k = std::min(k_param, n);
  if (k == 0) return {};

  // Eq. 7 per document: Ũ(d|q) = (1−λ)·|S_q|·P(d|q) + λ·Σ P(q′|q)·Ũ(d|R_q′).
  std::vector<double> overall(n);
  for (size_t i = 0; i < n; ++i) {
    double w = WeightedSum(utility.data() + i * m, probability);
    overall[i] = (1.0 - lambda) * static_cast<double>(m) * relevance[i] +
                 lambda * w;
  }
  auto ahead = [&](size_t a, size_t b) {
    if (overall[a] != overall[b]) return overall[a] > overall[b];
    return a < b;
  };

  // At most k specializations, most probable first (ties: index).
  std::vector<size_t> specs(m);
  for (size_t j = 0; j < m; ++j) specs[j] = j;
  std::sort(specs.begin(), specs.end(), [&](size_t a, size_t b) {
    if (probability[a] != probability[b]) {
      return probability[a] > probability[b];
    }
    return a < b;
  });
  if (specs.size() > k) specs.resize(k);

  std::vector<size_t> selected;
  std::vector<char> taken(n, 0);
  // Coverage: each specialization contributes its ⌊k·P(q′|q)⌋ (at least
  // one) best documents useful to it; a document already taken counts
  // toward the quota without being added twice.
  for (size_t j : specs) {
    if (selected.size() >= k) break;
    size_t quota = static_cast<size_t>(
        std::floor(static_cast<double>(k) * probability[j]));
    size_t want = std::max<size_t>(quota, 1);
    std::vector<size_t> useful;
    for (size_t i = 0; i < n; ++i) {
      if (utility[i * m + j] > 0.0) useful.push_back(i);
    }
    std::sort(useful.begin(), useful.end(), ahead);
    size_t got = 0;
    for (size_t i : useful) {
      if (got >= want || selected.size() >= k) break;
      ++got;
      if (taken[i]) continue;
      taken[i] = 1;
      selected.push_back(i);
    }
  }
  // Fill from the k best documents overall.
  std::vector<size_t> best(n);
  for (size_t i = 0; i < n; ++i) best[i] = i;
  std::sort(best.begin(), best.end(), ahead);
  best.resize(k);
  for (size_t i : best) {
    if (selected.size() >= k) break;
    if (taken[i]) continue;
    taken[i] = 1;
    selected.push_back(i);
  }
  std::sort(selected.begin(), selected.end(), ahead);
  return selected;
}

Expected ExpectedAnswer(const OracleStack& stack,
                        const std::string& normalized,
                        const optselect::store::StoredEntry* entry) {
  Expected out;
  std::vector<optselect::text::TermId> terms =
      stack.analyzer->AnalyzeReadOnly(normalized);
  optselect::index::ResultList rq =
      stack.searcher->SearchTerms(terms, stack.num_candidates);
  out.candidates = rq.size();
  const bool ambiguous = entry != nullptr && entry->specializations.size() >= 2;
  if (!ambiguous || rq.empty()) {
    for (size_t i = 0; i < rq.size() && i < stack.k; ++i) {
      out.ranking.push_back(rq[i].doc);
    }
    out.hash = HashRanking(out.ranking);
    return out;
  }

  const size_t n = rq.size();
  const size_t m = entry->specializations.size();
  double max_score = rq.front().score;
  for (const auto& hit : rq) max_score = std::max(max_score, hit.score);
  std::vector<double> relevance(n);
  std::vector<double> probability(m);
  std::vector<double> inv_harmonic(m);
  for (size_t j = 0; j < m; ++j) {
    const auto& spec = entry->specializations[j];
    probability[j] = spec.probability;
    inv_harmonic[j] =
        spec.surrogates.empty() ? 0.0 : 1.0 / Harmonic(spec.surrogates.size());
  }
  std::vector<double> utility(n * m);
  for (size_t i = 0; i < n; ++i) {
    relevance[i] = max_score > 0 ? rq[i].score / max_score : 0.0;
    TermVector doc = stack.snippets->ExtractVector(
        stack.documents->Get(rq[i].doc), terms);
    for (size_t j = 0; j < m; ++j) {
      const auto& results = entry->specializations[j].surrogates;
      double raw = 0.0;
      for (size_t r = 0; r < results.size(); ++r) {
        raw += Cosine(doc, results[r]) / static_cast<double>(r + 1);
      }
      double u = raw * inv_harmonic[j];
      utility[i * m + j] = u < stack.threshold_c ? 0.0 : u;
    }
  }
  std::vector<size_t> picks =
      NaiveOptSelect(relevance, utility, probability, stack.k, stack.lambda);
  std::vector<char> used(n, 0);
  for (size_t i : picks) {
    out.ranking.push_back(rq[i].doc);
    used[i] = 1;
  }
  for (size_t i = 0; i < n && out.ranking.size() < stack.k; ++i) {
    if (!used[i]) out.ranking.push_back(rq[i].doc);
  }
  out.diversified = true;
  out.hash = HashRanking(out.ranking);
  return out;
}

}  // namespace servebench
