// Online phase (traced offline-batch runs): independent users send
// single-row queries to one loopback RbcServer (library default
// ServiceOptions). Phase 1 is an open loop on a
// seeded Poisson schedule at a fixed offered rate, each latency timed from
// the request's due instant; phase 2 keeps a fixed window of requests in
// flight to find the saturation throughput.
#include <exception>
#include <thread>

#include "loadgen.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kOfferedRate = 1000.0;  // queries/s, phase 1
constexpr std::uint64_t kWindow = 1024;  // requests in flight, phase 2
constexpr double kDrainTimeout = 10.0;   // s to wait for the last answers

/// Latency samples and checked answers of one open-loop phase.
struct OpenLoopResult {
  std::vector<double> latency_ms;
  Lateness late;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Collects the first answer to every sampled query.
struct AnswerSink {
  std::vector<int> slot;  // per query index: position in sample, or -1
  std::vector<Answer> answers;

  explicit AnswerSink(const std::vector<index_t>& sample)
      : slot(kQueries, -1), answers(sample.size()) {
    for (std::size_t i = 0; i < sample.size(); ++i)
      slot[sample[i]] = static_cast<int>(i);
  }
  void offer(index_t qi, const rbc::KnnResult& r) {
    const int s = slot[qi];
    if (s >= 0 && answers[static_cast<std::size_t>(s)].ids.empty())
      answers[static_cast<std::size_t>(s)] = answer_row(r, 0);
  }
};

OpenLoopResult open_loop(LoadGen& gen, const std::vector<double>& due,
                         std::uint64_t first_id, AnswerSink* sink) {
  OpenLoopResult res;
  const std::size_t n = due.size();
  if (n == 0) throw std::runtime_error("open-loop phase too short for one request");
  std::vector<double> done(n, -1.0);
  std::size_t next = 0;
  std::size_t answered = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto elapsed = [&] { return seconds_between(t0, Clock::now()); };
  const auto on_response = [&](std::uint64_t id,
                               const rbc::serve::net::KnnResponseMsg* msg) {
    const std::size_t j = id - first_id;
    if (j >= n || done[j] >= 0) return;
    done[j] = elapsed();
    ++answered;
    if (msg == nullptr) {
      ++res.failed;
      return;
    }
    res.latency_ms.push_back((done[j] - due[j]) * 1e3);
    if (sink) sink->offer(static_cast<index_t>(j % kQueries), msg->result);
  };
  while (answered < n) {
    double now = elapsed();
    while (next < n && due[next] <= now) {
      gen.send(first_id + next, static_cast<index_t>(next % kQueries));
      res.late.record(due[next], elapsed());
      ++next;
      now = elapsed();
    }
    if (next == n && now > due.back() + kDrainTimeout) break;
    gen.poll(next < n ? due[next] - now : 0.01, on_response);
  }
  res.attempted = n;
  res.failed += n - answered;  // never answered
  return res;
}

/// Closed window of `kWindow` requests for `seconds` (deeper than the
/// service's max_batch, so every batch it forms is full); returns
/// completions per second.
double saturation(LoadGen& gen, double seconds, std::uint64_t& next,
                  std::uint64_t& attempted, std::uint64_t& failed) {
  const std::uint64_t first_id = next;
  std::uint64_t completed = 0;
  std::uint64_t answered = 0;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);
  bool sending = true;
  const auto on_response = [&](std::uint64_t,
                               const rbc::serve::net::KnnResponseMsg* msg) {
    ++answered;
    if (msg == nullptr) ++failed;
    if (sending) {
      if (msg != nullptr) ++completed;
      gen.send(next, static_cast<index_t>(next % kQueries));
      ++next;
    }
  };
  for (std::uint64_t i = 0; i < kWindow; ++i, ++next)
    gen.send(next, static_cast<index_t>(next % kQueries));
  while (Clock::now() < end) gen.poll(0.01, on_response);
  const double measured = seconds_between(t0, Clock::now());
  sending = false;
  const auto drain_end = Clock::now() + std::chrono::duration<double>(kDrainTimeout);
  while (answered < next - first_id && Clock::now() < drain_end)
    gen.poll(0.01, on_response);
  attempted += next - first_id;
  failed += (next - first_id) - answered;
  return static_cast<double>(completed) / measured;
}

/// The same schedule replayed into an in-process SearchService: the
/// service's own latency, without the wire. Returns latencies (ms) and
/// per-query submit instants.
std::vector<double> replay_in_process(rbc::serve::SearchService& service,
                                      const std::vector<rbc::Matrix<float>>& rows,
                                      const std::vector<double>& due,
                                      std::vector<Clock::time_point>& submitted) {
  const std::size_t n = due.size();
  std::vector<std::future<rbc::serve::QueryResult>> futures(n);
  submitted.assign(n, {});
  std::atomic<std::size_t> published{0};
  std::atomic<bool> abort{false};
  std::exception_ptr error;  // first failure on either thread
  std::vector<double> latency(n, 0.0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  std::thread collector([&] {
    try {
      for (std::size_t j = 0; j < n; ++j) {
        while (published.load(std::memory_order_acquire) <= j) {
          if (abort.load()) return;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        (void)futures[j].get();
        latency[j] = (seconds_between(t0, Clock::now()) - due[j]) * 1e3;
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  try {
    for (std::size_t j = 0; j < n; ++j) {
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(due[j])));
      const rbc::Matrix<float>& q = rows[j % kQueries];
      submitted[j] = Clock::now();
      futures[j] = service.submit({q.row(0), q.cols()}, kK);
      published.store(j + 1, std::memory_order_release);
    }
  } catch (...) {
    abort.store(true);
    collector.join();
    throw;
  }
  collector.join();
  if (error) std::rethrow_exception(error);
  return latency;
}

void report_net_codec(const Inputs& in, const Answer& any, Outcome& out) {
  namespace net = rbc::serve::net;
  rbc::KnnResult result(1, kK);
  for (index_t j = 0; j < kK; ++j) {
    result.ids.at(0, j) = any.ids[j];
    result.dists.at(0, j) = any.dists[j];
  }
  rbc::Matrix<float> one(1, in.queries.cols());
  constexpr index_t kReps = 2000;
  const auto t0 = Clock::now();
  for (index_t i = 0; i < kReps; ++i) {
    one.copy_row_from(in.queries, i, 0);
    const auto req = net::encode_knn_request(i, one, kK);
    const auto msg = net::decode_knn_request(
        std::span(req).subspan(net::kHeaderSize));
    const auto resp = net::encode_knn_response(i, result);
    const auto back = net::decode_knn_response(
        std::span(resp).subspan(net::kHeaderSize));
    if (msg.queries.rows() != 1 || back.result.ids.at(0, 0) != any.ids[0])
      throw std::runtime_error("codec round trip changed a frame");
  }
  out.set("net.codec_us_per_query", seconds_between(t0, Clock::now()) * 1e6 / kReps, "us");
}

}  // namespace

Outcome run_online(const Config& cfg, const Inputs& in,
                   const std::shared_ptr<const rbc::Index>& index, Trace& trace) {
  Outcome out;
  rbc::serve::net::RbcServer server(
      std::make_unique<TimedIndex>(index, &trace, "api.knn_search"));
  LoadGen gen(server.port(), cfg.cores, in.queries, kK);

  const double open_s = 0.5 * cfg.seconds;
  const double sat_s = 0.5 * cfg.seconds;
  std::uint64_t next_id = 1;

  // Warm-up at the offered rate, then a short saturation burst.
  const auto warm = poisson_schedule(kOfferedRate, 0.5, cfg.seed ^ 0x5a5a);
  (void)open_loop(gen, warm, next_id, nullptr);
  next_id += warm.size();
  std::uint64_t ignored = 0;
  (void)saturation(gen, 0.3, next_id, ignored, ignored);

  const auto due = poisson_schedule(kOfferedRate, open_s, cfg.seed);
  const auto sample = check_sample(
      cfg.seed, std::min<index_t>(kQueries, static_cast<index_t>(due.size())));
  AnswerSink sink(sample);
  const auto stats_before = server.stats();
  const auto phase_start = Clock::now();
  OpenLoopResult open = open_loop(gen, due, next_id, &sink);
  const auto phase_end = Clock::now();
  const auto stats_after = server.stats();
  next_id += due.size();
  out.attempted += open.attempted;
  out.failed += open.failed;
  const auto served = trace.take("api.knn_search", phase_start, phase_end);

  const auto sat_start = Clock::now();
  const double sat_qps = saturation(gen, sat_s, next_id, out.attempted, out.failed);
  // Backend at the batch sizes the service formed: at the offered rate
  // (api.*) and at saturation (api.sat_*).
  report_api_layer(served, "api.", out);
  report_api_layer(trace.take("api.knn_search", sat_start), "api.sat_", out);

  out.set("net.sat_qps", sat_qps, "1/s");
  out.set("net.latency_ms_p50", percentile(open.latency_ms, 0.5), "ms");
  out.set("net.latency_ms_p99", percentile(open.latency_ms, 0.99), "ms");

  std::vector<index_t> answered_sample;
  std::vector<Answer> answered;
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (!sink.answers[i].ids.empty()) {
      answered_sample.push_back(sample[i]);
      answered.push_back(sink.answers[i]);
    }
  check_against_reference(in, answered_sample, answered, "online", cfg.cores, out);

  // Service occupancy and batch shapes during phase 1.
  double busy_ms = 0.0;
  double singles = 0.0;
  for (const Span& s : served) {
    busy_ms += s.ms();
    singles += s.rows == 1 ? 1.0 : 0.0;
  }
  out.set("serve.busy_share", busy_ms / ms_between(phase_start, phase_end), "ratio");
  out.set("serve.singleton_batch_share",
          singles / static_cast<double>(std::max<std::size_t>(served.size(), 1)),
          "ratio");
  out.set("net.generator_late_ms_p99", open.late.p99_ms(), "ms");
  const double frames = static_cast<double>(stats_after.frames_in - stats_before.frames_in);
  out.set("net.bytes_per_query",
          static_cast<double>((stats_after.bytes_in - stats_before.bytes_in) +
                              (stats_after.bytes_out - stats_before.bytes_out)) /
              std::max(frames, 1.0),
          "bytes");
  report_net_codec(in, answered.front(), out);

  // The same schedule into an in-process service: serve-layer latency and
  // queue wait, and by subtraction the wire's share.
  rbc::serve::SearchService service(
      std::make_unique<TimedIndex>(index, &trace, "serve.replay"));
  const auto rows = single_rows(in.queries);
  std::vector<Clock::time_point> submitted;
  (void)replay_in_process(service, rows, warm, submitted);
  const auto replay_start = Clock::now();
  const auto latency = replay_in_process(service, rows, due, submitted);
  const auto batches = trace.take("serve.replay", replay_start);
  // Batches run in FIFO order on the one worker: batch b holds the next
  // b.rows submissions.
  std::vector<double> wait_ms;
  std::size_t j = 0;
  for (const Span& b : batches)
    for (std::uint32_t r = 0; r < b.rows && j < submitted.size(); ++r, ++j)
      wait_ms.push_back(ms_between(submitted[j], b.start));
  const double serve_p50 = percentile(latency, 0.5);
  out.set("serve.latency_ms_p50", serve_p50, "ms");
  out.set("serve.queue_wait_ms_p50", percentile(wait_ms, 0.5), "ms");
  out.set("net.overhead_ms_p50", out.metrics["net.latency_ms_p50"].value - serve_p50, "ms");
  return out;
}

}  // namespace pb
