// Mutation phase (traced offline-batch runs): a writer inserts held-out rows
// and removes live ids on a fixed-rate schedule, crossing the library's
// default max_delta so that background merges run; beside it a closed-loop
// reader calls knn_search on the same rbc-exact index. Every read is
// checked for liveness and self-consistency; after a final compact()
// sampled answers must equal a scan of the live set the benchmark tracked
// itself.
#include <atomic>
#include <limits>
#include <thread>

#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kWriteRate = 1000.0;  // writes/s, alternating insert/remove

struct Read {
  double start = 0.0;
  double end = 0.0;
  index_t qi = 0;
  Answer answer;
};

struct Sample {
  double t = 0.0;
  index_t delta_rows = 0;
  index_t tombstones = 0;
};

}  // namespace

Outcome run_mutate(const Config& cfg, const Inputs& in, Trace& trace) {
  Outcome out;
  const std::shared_ptr<rbc::Index> index = build_rbc_exact(in.database);
  if (!index->info().supports_mutation)
    throw std::runtime_error("rbc-exact does not support mutation");
  const TimedIndex reader_view(index, &trace, "api.knn_search");
  const auto rows = single_rows(in.queries);

  for (index_t i = 0; i < 500; ++i)
    (void)reader_view.knn_search({.queries = &rows[i], .k = kK});

  // Liveness, in seconds from t0: an id may be returned by a read that
  // overlaps [live_from, dead_after]. Initial rows are live from the start.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> live_from(kN + kPool, kInf);
  std::vector<double> dead_after(kN + kPool, kInf);
  std::fill(live_from.begin(), live_from.begin() + kN, -kInf);

  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(cfg.seconds);
  const auto cap = t0 + std::chrono::duration<double>(3 * cfg.seconds);
  const auto now_s = [&] { return seconds_between(t0, Clock::now()); };
  std::atomic<bool> stop{false};

  // Writer: op j is due at j / kWriteRate; even ops insert pool row j / 2,
  // odd ops remove a seeded-random live id. It writes for as long as the
  // reader reads.
  std::vector<double> write_ms, insert_us, remove_us;
  std::uint64_t write_failed = 0;
  std::thread writer([&] {
    SeedRng rng(cfg.seed ^ 0xdead);
    std::vector<index_t> live(kN);
    for (index_t i = 0; i < kN; ++i) live[i] = i;
    rbc::Matrix<float> one(1, in.pool.cols());
    for (std::uint64_t j = 0;; ++j) {
      const double due = static_cast<double>(j) / kWriteRate;
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(due)));
      if (stop.load() || j / 2 >= kPool) break;
      const double start = now_s();
      try {
        if (j % 2 == 0) {
          const index_t id = kN + static_cast<index_t>(j / 2);
          one.copy_row_from(in.pool, static_cast<index_t>(j / 2), 0);
          live_from[id] = start;
          index->insert(one, std::span<const index_t>(&id, 1));
          live.push_back(id);
          insert_us.push_back((now_s() - start) * 1e6);
        } else {
          const std::size_t pick = rng.below(live.size());
          const index_t id = live[pick];
          live[pick] = live.back();
          live.pop_back();
          if (index->remove(std::span<const index_t>(&id, 1)) != 1) ++write_failed;
          dead_after[id] = now_s();
          remove_us.push_back((dead_after[id] - start) * 1e6);
        }
      } catch (const std::exception&) {
        ++write_failed;
      }
      write_ms.push_back((now_s() - due) * 1e3);
    }
  });

  // The delta and tombstone backlog, sampled every 5 ms.
  std::vector<Sample> samples;
  std::thread sampler([&] {
    while (!stop.load()) {
      const rbc::IndexInfo i = index->info();
      samples.push_back({now_s(), i.delta_rows, i.tombstones});
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Reader: closed loop on this thread. The writer and sampler are joined
  // on every path out of it.
  const auto join_all = [&] {
    stop.store(true);
    writer.join();
    sampler.join();
  };
  std::vector<Read> reads;
  try {
    for (index_t i = 0; Clock::now() < end ||
                        (reads.size() < kTailSamples && Clock::now() < cap);
         ++i) {
      Read r;
      r.qi = i % kQueries;
      r.start = now_s();
      const rbc::SearchResponse resp =
          reader_view.knn_search({.queries = &rows[r.qi], .k = kK});
      r.end = now_s();
      r.answer = answer_row(resp.knn, 0);
      reads.push_back(std::move(r));
    }
  } catch (...) {
    join_all();
    throw;
  }
  const double measured = now_s();
  join_all();
  const auto reader_spans = trace.take("api.knn_search", t0);

  out.attempted = reads.size() + write_ms.size();
  out.failed = write_failed;
  std::vector<double> read_ms, read_done;
  for (const Read& r : reads) {
    read_ms.push_back((r.end - r.start) * 1e3);
    read_done.push_back(r.end);
  }
  out.set("mutate.read_qps", windowed_rate(read_done, 0.0, measured, 0.5), "1/s");
  out.set("mutate.read_ms_p50", percentile(read_ms, 0.5), "ms");
  out.set("mutate.read_ms_p99", percentile(read_ms, 0.99), "ms");

  // Every read: k distinct known ids, ascending, distances recomputed, and
  // each id live at some moment during the read.
  ReferenceChecker checker(RowTable{&in.database, &in.pool, kN}, kK);
  for (const Read& r : reads) {
    std::string err = checker.check_shape(in.queries.row(r.qi), r.answer);
    for (index_t id : r.answer.ids)
      if (err.empty() && !(live_from[id] <= r.end && dead_after[id] >= r.start))
        err = "id " + std::to_string(id) + " was not live during the read";
    if (!err.empty()) out.fail_check("read of query " + std::to_string(r.qi) + ": " + err);
  }

  // After compact(), sampled answers equal a scan of the tracked live set.
  const auto c0 = Clock::now();
  index->compact();
  const double compact_s = seconds_between(c0, Clock::now());
  std::vector<index_t> live_set;
  for (index_t id = 0; id < kN + kPool; ++id)
    if (live_from[id] < kInf && dead_after[id] == kInf) live_set.push_back(id);
  if (index->info().size != live_set.size())
    out.fail_check("index holds " + std::to_string(index->info().size) +
                   " live rows, tracked " + std::to_string(live_set.size()));
  const auto sample = check_sample(cfg.seed, kQueries);
  std::vector<const float*> qs;
  for (index_t qi : sample) qs.push_back(in.queries.row(qi));
  const auto refs = checker.references(qs, &live_set, cfg.cores);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const rbc::SearchResponse r = index->knn_search({.queries = &rows[sample[i]], .k = kK});
    const std::string err = checker.check_exact(qs[i], answer_row(r.knn, 0), refs[i]);
    if (!err.empty())
      out.fail_check("post-compact query " + std::to_string(sample[i]) + ": " + err);
  }

  rbc::SearchStats reads_total;
  for (const Span& s : reader_spans) reads_total.merge(s.stats);
  out.set("mutate.read_evals_per_query", reads_total.dist_evals_per_query(), "count");
  out.set("mutate.insert_us_p50", percentile(insert_us, 0.5), "us");
  out.set("mutate.remove_us_p50", percentile(remove_us, 0.5), "us");
  out.set("mutate.write_ms_p99", percentile(write_ms, 0.99), "ms");
  out.set("mutate.compact_s", compact_s, "s");
  // A merge starts when the delta reaches max_delta and ends when the
  // sampled delta falls back below half of what it held.
  const index_t threshold = rbc::IndexOptions{}.max_delta;
  std::vector<double> merge_s;
  std::vector<double> delta, tombs;
  double started = -1.0;
  index_t peak = 0;
  for (const Sample& s : samples) {
    delta.push_back(s.delta_rows);
    tombs.push_back(s.tombstones);
    if (started < 0 && s.delta_rows >= threshold) {
      started = s.t;
      peak = s.delta_rows;
    } else if (started >= 0) {
      peak = std::max(peak, s.delta_rows);
      if (s.delta_rows < peak / 2) {
        merge_s.push_back(s.t - started);
        started = -1.0;
      }
    }
  }
  out.set("mutate.merges", static_cast<double>(merge_s.size()), "count");
  out.set("mutate.merge_s_mean", mean(merge_s), "s");
  out.set("mutate.delta_rows_mean", mean(delta), "count");
  out.set("mutate.tombstones_mean", mean(tombs), "count");
  return out;
}

}  // namespace pb
