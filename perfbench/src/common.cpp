#include "data/generators.hpp"
#include "workloads.hpp"

namespace pb {

Inputs make_inputs(const std::string& dataset, std::uint64_t seed) {
  rbc::data::DataSplit split = rbc::data::make_benchmark_data(
      rbc::data::dataset_by_name(dataset), kN, kQueries + kPool, seed);
  Inputs in;
  in.database = std::move(split.database);
  in.queries = rbc::Matrix<float>(kQueries, in.database.cols());
  in.pool = rbc::Matrix<float>(kPool, in.database.cols());
  for (index_t i = 0; i < kQueries; ++i) in.queries.copy_row_from(split.queries, i, i);
  for (index_t i = 0; i < kPool; ++i)
    in.pool.copy_row_from(split.queries, kQueries + i, i);
  return in;
}

std::shared_ptr<rbc::Index> build_rbc_exact(const rbc::Matrix<float>& rows) {
  std::shared_ptr<rbc::Index> index = rbc::make_index("rbc-exact", rbc::IndexOptions{});
  index->build(rows);
  return index;
}

std::vector<index_t> check_sample(std::uint64_t seed, index_t count) {
  SeedRng rng(seed ^ 0xc0ffee);
  std::vector<index_t> sample;
  while (sample.size() < std::min<std::size_t>(kCheckSample, count)) {
    const auto qi = static_cast<index_t>(rng.below(count));
    if (std::find(sample.begin(), sample.end(), qi) == sample.end())
      sample.push_back(qi);
  }
  return sample;
}

void check_against_reference(const Inputs& in, const std::vector<index_t>& sample,
                             const std::vector<Answer>& answers,
                             const char* what, int threads, Outcome& out) {
  ReferenceChecker checker(RowTable{&in.database}, kK);
  std::vector<const float*> qs;
  for (index_t qi : sample) qs.push_back(in.queries.row(qi));
  const auto refs = checker.references(qs, nullptr, threads);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::string err = checker.check_exact(qs[i], answers[i], refs[i]);
    if (!err.empty())
      out.fail_check(std::string(what) + " query " + std::to_string(sample[i]) +
                     ": " + err);
  }
}

Answer answer_row(const rbc::KnnResult& r, index_t qi) {
  Answer a;
  for (index_t j = 0; j < r.ids.cols(); ++j) {
    a.ids.push_back(r.ids.at(qi, j));
    a.dists.push_back(r.dists.at(qi, j));
  }
  return a;
}

void report_rbc_layer(const std::vector<Span>& spans, Outcome& out) {
  rbc::SearchStats total;
  double busy_s = 0.0;
  for (const Span& s : spans) {
    total.merge(s.stats);
    busy_s += s.ms() / 1e3;
  }
  const double q = static_cast<double>(std::max<std::uint64_t>(total.queries, 1));
  const double pruned = static_cast<double>(total.reps_pruned_overlap +
                                            total.reps_pruned_lemma);
  const double considered = pruned + static_cast<double>(total.reps_scanned);
  out.set("rbc.evals_per_query", static_cast<double>(total.dist_evals()) / q, "count");
  out.set("rbc.rep_evals_per_query", static_cast<double>(total.rep_dist_evals) / q, "count");
  out.set("rbc.list_evals_per_query", static_cast<double>(total.list_dist_evals) / q, "count");
  out.set("rbc.reps_scanned_per_query", static_cast<double>(total.reps_scanned) / q, "count");
  out.set("rbc.reps_pruned_share", considered > 0 ? pruned / considered : 0.0, "ratio");
  out.set("rbc.evals_per_s",
          busy_s > 0 ? static_cast<double>(total.dist_evals()) / busy_s : 0.0, "1/s");
}

void report_api_layer(const std::vector<Span>& spans, const std::string& prefix,
                      Outcome& out) {
  std::vector<double> ms;
  double rows = 0.0;
  double evals = 0.0;
  for (const Span& s : spans) {
    ms.push_back(s.ms());
    rows += s.rows;
    evals += static_cast<double>(s.stats.dist_evals());
  }
  if (spans.empty()) return;
  out.set(prefix + "batch_ms_p50", percentile(ms, 0.5), "ms");
  out.set(prefix + "batch_rows_mean", rows / static_cast<double>(spans.size()), "count");
  out.set(prefix + "evals_per_query_served", evals / std::max(rows, 1.0), "count");
}

std::vector<rbc::Matrix<float>> single_rows(const rbc::Matrix<float>& q) {
  std::vector<rbc::Matrix<float>> rows;
  rows.reserve(q.rows());
  for (index_t i = 0; i < q.rows(); ++i) {
    rows.emplace_back(1, q.cols());
    rows.back().copy_row_from(q, i, 0);
  }
  return rows;
}

}  // namespace pb
