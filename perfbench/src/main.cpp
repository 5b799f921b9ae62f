// perfbench: the benchmark of record. One workload per run:
//
//   perfbench --workload <offline-batch|offline-cov> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs the self-checks, makes the seeded inputs, sets up, warms up, measures
// for --seconds, checks every sampled answer against the reference checker,
// and prints a record line (host fingerprint, seed, metrics) followed by the
// result line {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones; a traced
// offline-batch run also runs the single-row, online, router and mutation
// phases. Exit code 0
// means every checked answer was right; 1 a checker mismatch; 2 a usage or
// run error; 3 a build that is not Release; 4 a failed self-check.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "selftest.hpp"
#include "workloads.hpp"

namespace {

using pb::Outcome;

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"}, {"load_s", "s"}, {"peak_rss_mb", "MB"}, {"qps", "1/s"},
};

// Every per-layer metric, with its unit. A layer a workload does not
// exercise reports 0 (see README.md for which workload moves which).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"client.qps", "1/s"},
    {"client.latency_ms_p50", "ms"},
    {"client.latency_ms_p99", "ms"},
    {"bruteforce.evals_per_s", "1/s"},
    {"bruteforce.b64_qps", "1/s"},
    {"rbc.b1_evals_per_query", "count"},
    {"rbc.b64_qps", "1/s"},
    {"rbc.b64_evals_per_query", "count"},
    {"rbc.evals_per_query", "count"},
    {"rbc.rep_evals_per_query", "count"},
    {"rbc.list_evals_per_query", "count"},
    {"rbc.reps_scanned_per_query", "count"},
    {"rbc.reps_pruned_share", "ratio"},
    {"rbc.evals_per_s", "1/s"},
    {"api.batch_ms_p50", "ms"},
    {"api.batch_rows_mean", "count"},
    {"api.evals_per_query_served", "count"},
    {"api.sat_batch_ms_p50", "ms"},
    {"api.sat_batch_rows_mean", "count"},
    {"api.sat_evals_per_query_served", "count"},
    {"api.index_mb", "MB"},
    {"api.file_mb", "MB"},
    {"serve.latency_ms_p50", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.busy_share", "ratio"},
    {"serve.singleton_batch_share", "ratio"},
    {"net.latency_ms_p50", "ms"},
    {"net.latency_ms_p99", "ms"},
    {"net.sat_qps", "1/s"},
    {"net.overhead_ms_p50", "ms"},
    {"net.codec_us_per_query", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.generator_late_ms_p99", "ms"},
    {"dist.qps", "1/s"},
    {"dist.latency_ms_p50", "ms"},
    {"dist.latency_ms_p99", "ms"},
    {"dist.shards_contacted_per_query", "count"},
    {"dist.shard_evals_per_query", "count"},
    {"dist.slowest_shard_ms_p50", "ms"},
    {"dist.fanout_skew_ms_p99", "ms"},
    {"dist.gather_overhead_ms_p50", "ms"},
    {"dist.requests_per_query", "count"},
    {"shard.inproc_ms_per_query", "ms"},
    {"shard.inproc_evals_per_query", "count"},
    {"mutate.read_qps", "1/s"},
    {"mutate.read_ms_p50", "ms"},
    {"mutate.read_ms_p99", "ms"},
    {"mutate.insert_us_p50", "us"},
    {"mutate.remove_us_p50", "us"},
    {"mutate.write_ms_p99", "ms"},
    {"mutate.merges", "count"},
    {"mutate.merge_s_mean", "s"},
    {"mutate.delta_rows_mean", "count"},
    {"mutate.tombstones_mean", "count"},
    {"mutate.read_evals_per_query", "count"},
    {"mutate.compact_s", "s"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const Outcome& out,
                         const std::vector<std::pair<const char*, const char*>>& names) {
  std::string s = "{";
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    const double value = it == out.metrics.end() ? 0.0 : it->second.value;
    if (s.size() > 1) s += ", ";
    s += '"';
    s += name;
    s += "\": {\"value\": ";
    s += number(value);
    s += ", \"unit\": \"";
    s += unit;
    s += "\"}";
  }
  return s + "}";
}

/// Folds a layer phase into the run: its checks, operation counts and
/// per-layer metrics.
void merge_layers(const Outcome& phase, Outcome& out) {
  out.correct = out.correct && phase.correct;
  out.errors.insert(out.errors.end(), phase.errors.begin(), phase.errors.end());
  out.attempted += phase.attempted;
  out.failed += phase.failed;
  for (const auto& [name, metric] : phase.metrics) out.metrics[name] = metric;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <offline-batch|"
               "offline-cov> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") cfg.workload = val;
      else if (key == "--seed") cfg.seed = std::stoull(val);
      else if (key == "--seconds") cfg.seconds = std::stod(val);
      else if (key == "--trace") cfg.trace = std::stoi(val) != 0;
      else if (key == "--work-dir") cfg.work_dir = val;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (cfg.workload.empty() || cfg.work_dir.empty() || !(cfg.seconds > 0))
    return usage("--workload, --seconds and --work-dir are required");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 build_type.c_str());
    return 3;
  }
  if (const std::string err = pb::run_self_checks(); !err.empty()) {
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", err.c_str());
    return 4;
  }

  cfg.cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(cfg.work_dir);
  const auto origin = pb::Clock::now();
  const double steal_start = pb::host_steal_s();
  pb::Trace trace;
  pb::RunInfo info;
  Outcome out;
  try {
    std::string dataset;
    if (cfg.workload == "offline-batch") dataset = "bio";
    else if (cfg.workload == "offline-cov") dataset = "cov";
    else return usage(("unknown workload " + cfg.workload).c_str());
    const pb::Inputs in = pb::make_inputs(dataset, cfg.seed);
    out = pb::run_offline(cfg, in, trace, info);
    if (cfg.trace && cfg.workload == "offline-batch") {
      // The per-query, serving, fan-out and mutation layers ride the traced
      // offline-batch run: single-row direct calls, a loopback-server
      // phase, a router phase and a write/read mix, each for a third of the
      // run. The first two serve the index the offline workload loaded.
      pb::Config part = cfg;
      part.seconds = std::max(3.0, cfg.seconds / 3);
      merge_layers(pb::run_single(part, in, info.index, trace), out);
      merge_layers(pb::run_online(part, in, info.index, trace), out);
      merge_layers(pb::run_router(part, in, trace), out);
      merge_layers(pb::run_mutate(part, in, trace), out);
    }
    out.set("peak_rss_mb", pb::peak_rss_mb(), "MB");

    for (const std::string& e : out.errors)
      std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    const std::string metrics = metrics_json(out, cfg.trace ? kPerLayer : kEndToEnd);
    if (!cfg.trace)
      for (const auto& [name, unit] : kEndToEnd)
        if (!(out.metrics.count(name) && out.metrics.at(name).value > 0))
          throw std::runtime_error(std::string("end-to-end metric ") + name +
                                   " was not measured");
    const std::string result =
        std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": " + metrics + "}";
    const std::string record =
        "{\"perfbench_record\": {\"workload\": \"" + json_escape(cfg.workload) +
        "\", \"seed\": " + std::to_string(cfg.seed) +
        ", \"seconds\": " + number(cfg.seconds) +
        ", \"trace\": " + (cfg.trace ? "1" : "0") +
        ", \"host\": {\"cores\": " + std::to_string(cfg.cores) +
        ", \"kernel_isa\": \"" + json_escape(info.kernel_isa) +
        "\", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
        "\", \"build_type\": \"" + json_escape(build_type) +
        "\", \"steal_s\": " + number(pb::host_steal_s() - steal_start) +
        "}, \"result\": " + result +
        // A traced run also records its end-to-end values: the difference
        // from an untraced run is the tracing overhead.
        (cfg.trace ? ", \"end_to_end_traced\": " + metrics_json(out, kEndToEnd) : "") +
        "}}";
    if (std::FILE* f = std::fopen((cfg.work_dir + "/records.jsonl").c_str(), "a")) {
      std::fprintf(f, "%s\n", record.c_str());
      std::fclose(f);
    }
    if (cfg.trace)
      trace.write(cfg.work_dir + "/trace-" + cfg.workload + "-" +
                      std::to_string(cfg.seed) + ".jsonl",
                  origin);
    std::printf("%s\n%s\n", record.c_str(), result.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return out.correct ? 0 : 1;
}
