// Router fan-out phase (traced offline-batch runs): one caller waits on each
// single-row answer from one NetRouter over kShards contiguous shard servers
// on loopback (a closed loop; one connection per shard). The slowest shard
// and the scatter / gather set each latency.
#include "common/counters.hpp"
#include "dist/net_router.hpp"
#include "serve/net/server.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr index_t kShards = 4;

/// Rows of each contiguous shard, in the router's own partition.
std::vector<rbc::Matrix<float>> shard_rows(const rbc::Matrix<float>& db) {
  const auto parts = rbc::shard::partition_rows(db.rows(), kShards,
                                                rbc::shard::Partition::kContiguous);
  std::vector<rbc::Matrix<float>> out;
  for (const auto& ids : parts) {
    out.emplace_back(static_cast<index_t>(ids.size()), db.cols());
    for (index_t i = 0; i < out.back().rows(); ++i)
      out.back().copy_row_from(db, ids[i], i);
  }
  return out;
}

/// dist.* metrics: shard spans assigned to the router call whose interval
/// holds them (calls are sequential, so the assignment is exact).
void report_dist_layer(const std::vector<Span>& shard_spans,
                       const std::vector<std::pair<Clock::time_point, Clock::time_point>>& calls,
                       const rbc::dist::RouterStats& stats, Outcome& out) {
  std::vector<double> slowest, skew, gather;
  double contacted = 0.0;
  double evals = 0.0;
  std::size_t s = 0;
  for (const auto& [start, end] : calls) {
    while (s < shard_spans.size() && shard_spans[s].start < start) ++s;
    double max_ms = 0.0;
    Clock::time_point first_end = end, last_end = start;
    int n = 0;
    for (; s < shard_spans.size() && shard_spans[s].start <= end; ++s) {
      const Span& sp = shard_spans[s];
      max_ms = std::max(max_ms, sp.ms());
      first_end = std::min(first_end, sp.end);
      last_end = std::max(last_end, sp.end);
      evals += static_cast<double>(sp.stats.dist_evals());
      ++n;
    }
    contacted += n;
    if (n == 0) continue;
    slowest.push_back(max_ms);
    skew.push_back(ms_between(first_end, last_end));
    gather.push_back(ms_between(start, end) - max_ms);
  }
  const double q = static_cast<double>(std::max<std::size_t>(calls.size(), 1));
  out.set("dist.shards_contacted_per_query", contacted / q, "count");
  out.set("dist.shard_evals_per_query", evals / q, "count");
  out.set("dist.slowest_shard_ms_p50", percentile(slowest, 0.5), "ms");
  out.set("dist.fanout_skew_ms_p99", percentile(skew, 0.99), "ms");
  out.set("dist.gather_overhead_ms_p50", percentile(gather, 0.5), "ms");
  out.set("dist.requests_per_query",
          static_cast<double>(stats.requests) / static_cast<double>(std::max<std::uint64_t>(stats.queries, 1)),
          "count");
}

}  // namespace

Outcome run_router(const Config& cfg, const Inputs& in, Trace& trace) {
  Outcome out;
  std::vector<std::unique_ptr<rbc::serve::net::RbcServer>> servers;
  std::vector<rbc::dist::Endpoint> endpoints;
  const auto parts = shard_rows(in.database);
  for (index_t s = 0; s < kShards; ++s) {
    servers.push_back(std::make_unique<rbc::serve::net::RbcServer>(std::make_unique<TimedIndex>(
        build_rbc_exact(parts[s]), &trace, "shard.knn", static_cast<int>(s))));
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  rbc::dist::NetRouter router(endpoints);
  const auto rows = single_rows(in.queries);

  // Warm-up, then the closed loop.
  const auto warm_end = Clock::now() + std::chrono::milliseconds(500);
  for (index_t i = 0; Clock::now() < warm_end; ++i)
    (void)router.knn(rows[i % kQueries], kK);
  const rbc::dist::RouterStats before = router.stats();

  std::vector<Answer> answers(kQueries);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(cfg.seconds);
  const auto cap = t0 + std::chrono::duration<double>(3 * cfg.seconds);
  for (index_t i = 0; Clock::now() < end ||
                      (latency_ms.size() < kTailSamples && Clock::now() < cap);
       ++i) {
    const index_t qi = i % kQueries;
    const auto c0 = Clock::now();
    const rbc::KnnResult r = router.knn(rows[qi], kK);
    const auto c1 = Clock::now();
    calls.emplace_back(c0, c1);
    latency_ms.push_back(ms_between(c0, c1));
    done_s.push_back(seconds_between(t0, c1));
    ++out.attempted;
    if (i < kQueries) answers[qi] = answer_row(r, 0);
  }
  const double measured = seconds_between(t0, Clock::now());
  out.set("dist.qps", windowed_rate(done_s, 0.0, measured, 0.5), "1/s");
  out.set("dist.latency_ms_p50", percentile(latency_ms, 0.5), "ms");
  out.set("dist.latency_ms_p99", percentile(latency_ms, 0.99), "ms");

  // The checked sample is drawn from the queries the loop reached.
  const auto sample = check_sample(
      cfg.seed, std::min<index_t>(kQueries, static_cast<index_t>(latency_ms.size())));
  std::vector<Answer> sampled;
  for (index_t qi : sample) sampled.push_back(answers[qi]);
  check_against_reference(in, sample, sampled, "router", cfg.cores, out);

  const auto shard_spans = trace.take("shard.knn", t0);
  rbc::dist::RouterStats stats = router.stats();
  stats.requests -= before.requests;
  stats.queries -= before.queries;
  report_dist_layer(shard_spans, calls, stats, out);

  // shard layer: the same stream through in-process sharded:rbc-exact.
  rbc::IndexOptions options;
  options.num_shards = kShards;
  auto sharded = rbc::make_index("sharded:rbc-exact", options);
  sharded->build(in.database);
  for (index_t i = 0; i < 200; ++i) (void)sharded->knn_search({.queries = &rows[i], .k = kK});
  const index_t n = std::min<index_t>(static_cast<index_t>(latency_ms.size()), 4000);
  rbc::counters::Scope work;
  const auto s0 = Clock::now();
  for (index_t i = 0; i < n; ++i)
    (void)sharded->knn_search({.queries = &rows[i % kQueries], .k = kK});
  const double s = seconds_between(s0, Clock::now());
  out.set("shard.inproc_ms_per_query", s * 1e3 / n, "ms");
  out.set("shard.inproc_evals_per_query", static_cast<double>(work.delta()) / n, "count");
  return out;
}

}  // namespace pb
