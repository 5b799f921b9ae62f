// The workloads of the benchmark of record (offline-batch, offline-cov), the
// single-row, online, router fan-out and mutation phases a traced
// offline-batch run adds, and what they share: the seeded inputs, the fixed
// sizes, and the answer-check steps every one of them runs the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.hpp"
#include "util.hpp"

namespace pb {

// Inputs: a paper surrogate at the bio dataset's n (the paper's), with
// held-out queries from the same draw.
inline constexpr index_t kN = 200'000;
inline constexpr index_t kQueries = 10'000;  // held-out query set (one block)
inline constexpr index_t kPool = 10'000;     // held-out rows mutate-mix inserts
inline constexpr index_t kK = 10;
inline constexpr int kSetupReps = 5;         // set-up / load repetitions
inline constexpr std::size_t kCheckSample = 128;  // queries checked exactly
// Closed loops that report a p99 run past their time until they hold this
// many samples (at most three times their time), so ten lie beyond the p99
// however slow the host is.
inline constexpr std::size_t kTailSamples = 2000;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // index files, trace and records go here
  int cores = 1;
};

struct Inputs {
  rbc::Matrix<float> database;  // kN rows, ids 0..kN-1
  rbc::Matrix<float> queries;   // kQueries held-out rows
  rbc::Matrix<float> pool;      // kPool held-out rows, inserted as kN + j
};

/// The paper surrogate `dataset` ("bio", "cov", ...) at kN rows, with the
/// held-out query set and insert pool from the same draw.
Inputs make_inputs(const std::string& dataset, std::uint64_t seed);

/// What the offline workload hands on: the host's kernel ISA for the
/// fingerprint, and the loaded index it searched.
struct RunInfo {
  std::string kernel_isa;
  std::shared_ptr<const rbc::Index> index;
};

// The workloads (offline-batch over bio, offline-cov over cov).
Outcome run_offline(const Config& cfg, const Inputs& in, Trace& trace, RunInfo& info);
// Layer phases a traced offline-batch run adds. The single-row and online
// phases serve the offline workload's loaded index; the router and mutation
// phases build their own (shards; an index the writer changes).
Outcome run_single(const Config& cfg, const Inputs& in,
                   const std::shared_ptr<const rbc::Index>& index, Trace& trace);
Outcome run_online(const Config& cfg, const Inputs& in,
                   const std::shared_ptr<const rbc::Index>& index, Trace& trace);
Outcome run_router(const Config& cfg, const Inputs& in, Trace& trace);
Outcome run_mutate(const Config& cfg, const Inputs& in, Trace& trace);

// ------------------------------------------------------ shared steps ---

/// Builds rbc-exact over `rows` with the library's default options.
std::shared_ptr<rbc::Index> build_rbc_exact(const rbc::Matrix<float>& rows);

/// Seeded sample of kCheckSample distinct query indices below `count` (all
/// of them when fewer), checked exactly against the reference.
std::vector<index_t> check_sample(std::uint64_t seed, index_t count);

/// Checks `answers[i]` (the program's answer to queries row sample[i])
/// exactly against the reference over the whole database.
void check_against_reference(const Inputs& in, const std::vector<index_t>& sample,
                             const std::vector<Answer>& answers,
                             const char* what, int threads, Outcome& out);

/// Copies row `qi` of a KnnResult into an Answer.
Answer answer_row(const rbc::KnnResult& r, index_t qi);

/// rbc.* per-layer metrics: SearchStats summed over the spans.
void report_rbc_layer(const std::vector<Span>& spans, Outcome& out);

/// <prefix>batch_ms_p50, <prefix>batch_rows_mean and
/// <prefix>evals_per_query_served from the spans recorded at the backend
/// boundary.
void report_api_layer(const std::vector<Span>& spans, const std::string& prefix,
                      Outcome& out);

/// One-row query matrices, one per held-out query (built once, outside
/// every timed phase).
std::vector<rbc::Matrix<float>> single_rows(const rbc::Matrix<float>& q);

}  // namespace pb
