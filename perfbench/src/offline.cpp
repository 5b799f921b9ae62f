// The in-process paths over one rbc-exact index.
//
// run_offline (the offline-batch and offline-cov workloads): the paper's
// protocol. One large block of held-out queries goes straight into
// Index::knn_search (the blocked search path).
//
// run_single (a phase of traced offline-batch runs): one caller makes
// single-row knn_search calls back to back (the per-query path, which the
// service's singleton batches take), with no service, wire or router in
// the way.
#include <filesystem>

#include "bruteforce/bf.hpp"
#include "common/counters.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

/// Builds the index kSetupReps times (median -> setup_s), saves it, and
/// loads it back kSetupReps times (least -> load_s: a load is fixed work, and
/// the quickest repetition is the one the host disturbed least). Returns the
/// last loaded copy; also reports api.file_mb and api.index_mb.
std::shared_ptr<rbc::Index> set_up(const Config& cfg, const Inputs& in,
                                   Outcome& out) {
  std::vector<double> build_s, load_s;
  std::shared_ptr<rbc::Index> built;
  for (int r = 0; r < kSetupReps; ++r) {
    built.reset();  // release the previous repetition before building anew
    const auto t0 = Clock::now();
    built = build_rbc_exact(in.database);
    build_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.set("setup_s", percentile(build_s, 0.5), "s");

  const std::string path = cfg.work_dir + "/offline.rbc";
  rbc::save_index(*built, path);
  out.set("api.file_mb", static_cast<double>(std::filesystem::file_size(path)) / 1e6, "MB");
  out.set("api.index_mb", static_cast<double>(built->info().memory_bytes) / 1e6, "MB");
  built.reset();
  std::shared_ptr<rbc::Index> loaded;
  for (int r = 0; r < kSetupReps; ++r) {
    loaded.reset();
    const auto t0 = Clock::now();
    loaded = rbc::load_index_file(path);
    load_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::filesystem::remove(path);
  out.set("load_s", *std::min_element(load_s.begin(), load_s.end()), "s");
  return loaded;
}

}  // namespace

Outcome run_offline(const Config& cfg, const Inputs& in, Trace& trace,
                    RunInfo& info) {
  Outcome out;
  const std::shared_ptr<rbc::Index> loaded = set_up(cfg, in, out);
  info.kernel_isa = loaded->info().kernel_isa;
  info.index = loaded;
  const TimedIndex index(loaded, cfg.trace ? &trace : nullptr, "api.knn_search");
  const rbc::SearchRequest block{.queries = &in.queries, .k = kK};

  // Warm-up: the first identical calls in a fresh process run far slower.
  (void)index.knn_search(block);

  std::vector<double> block_qps;
  rbc::KnnResult last_block;
  const auto block_start = Clock::now();
  const auto block_end = block_start + std::chrono::duration<double>(cfg.seconds);
  do {
    const auto t0 = Clock::now();
    last_block = index.knn_search(block).knn;
    block_qps.push_back(kQueries / seconds_between(t0, Clock::now()));
    out.attempted += kQueries;
  } while (Clock::now() < block_end);
  out.set("qps", percentile(block_qps, 0.5), "1/s");

  const auto sample = check_sample(cfg.seed, kQueries);
  std::vector<Answer> answers;
  for (index_t qi : sample) answers.push_back(answer_row(last_block, qi));
  check_against_reference(in, sample, answers, "block", cfg.cores, out);

  if (cfg.trace) {
    const auto block_spans = trace.take("api.knn_search", block_start);
    report_rbc_layer(block_spans, out);
    // bruteforce/distance layer: a direct bf_knn call on part of the block.
    rbc::Matrix<float> part(512, in.queries.cols());
    for (index_t i = 0; i < part.rows(); ++i) part.copy_row_from(in.queries, i, i);
    (void)rbc::bf_knn(part, in.database, kK);
    rbc::counters::Scope work;
    const auto t0 = Clock::now();
    (void)rbc::bf_knn(part, in.database, kK);
    out.set("bruteforce.evals_per_s",
            static_cast<double>(work.delta()) / seconds_between(t0, Clock::now()),
            "1/s");

    // The blocked-path valley: a 64-row block, where rbc-exact's blocked
    // search does more work per query than at batch 1 and races brute force.
    rbc::Matrix<float> b64(64, in.queries.cols());
    std::vector<double> rbc_qps, bf_qps;
    double evals = 0.0;
    for (index_t rep = 0; rep < 20; ++rep) {
      for (index_t i = 0; i < 64; ++i) b64.copy_row_from(in.queries, rep * 64 + i, i);
      rbc::SearchRequest req{.queries = &b64, .k = kK};
      req.options.collect_stats = true;
      const auto r0 = Clock::now();
      const rbc::SearchResponse resp = loaded->knn_search(req);
      rbc_qps.push_back(64 / seconds_between(r0, Clock::now()));
      evals += static_cast<double>(resp.stats.dist_evals());
      const auto b0 = Clock::now();
      (void)rbc::bf_knn(b64, in.database, kK);
      bf_qps.push_back(64 / seconds_between(b0, Clock::now()));
    }
    out.set("rbc.b64_qps", percentile(rbc_qps, 0.5), "1/s");
    out.set("rbc.b64_evals_per_query", evals / (20 * 64), "count");
    out.set("bruteforce.b64_qps", percentile(bf_qps, 0.5), "1/s");
  }
  return out;
}

Outcome run_single(const Config& cfg, const Inputs& in,
                   const std::shared_ptr<const rbc::Index>& loaded, Trace& trace) {
  Outcome out;
  const TimedIndex index(loaded, &trace, "api.knn_search");
  const auto rows = single_rows(in.queries);
  for (index_t i = 0; i < 500; ++i)
    (void)index.knn_search({.queries = &rows[i], .k = kK});

  // Closed loop through the held-out set, for the whole run.
  std::vector<double> latency_ms, done_s;
  std::vector<Answer> answers(kQueries);
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(cfg.seconds);
  for (index_t i = 0; Clock::now() < end; ++i) {
    const index_t qi = i % kQueries;
    const auto c0 = Clock::now();
    const rbc::SearchResponse r = index.knn_search({.queries = &rows[qi], .k = kK});
    const auto c1 = Clock::now();
    latency_ms.push_back(ms_between(c0, c1));
    done_s.push_back(seconds_between(t0, c1));
    ++out.attempted;
    if (i < kQueries) answers[qi] = answer_row(r.knn, 0);
  }
  const double measured = seconds_between(t0, Clock::now());
  out.set("client.qps", windowed_rate(done_s, 0.0, measured, 0.5), "1/s");
  out.set("client.latency_ms_p50", percentile(latency_ms, 0.5), "ms");
  out.set("client.latency_ms_p99", percentile(latency_ms, 0.99), "ms");

  // The checked sample is drawn from the queries the loop reached.
  const auto sample = check_sample(
      cfg.seed, std::min<index_t>(kQueries, static_cast<index_t>(latency_ms.size())));
  std::vector<Answer> sampled;
  for (index_t qi : sample) sampled.push_back(answers[qi]);
  check_against_reference(in, sample, sampled, "single-row", cfg.cores, out);

  // Work per query at batch 1, next to the 64-row and 10k-row blocks.
  rbc::SearchStats total;
  for (const Span& s : trace.take("api.knn_search", t0)) total.merge(s.stats);
  out.set("rbc.b1_evals_per_query", total.dist_evals_per_query(), "count");
  return out;
}

}  // namespace pb
