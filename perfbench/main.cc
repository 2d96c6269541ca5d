// End-to-end benchmark of the sharding system: signed transactions from
// hand-over to confirmation in a shard block, through the public path
// (decode, VerifyBatch, SubmitTransactionBatch, MineBlock, BeginEpoch).
//
//   shardbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scale full|toy] [--inject none|sig|block] [--commit <id>]
//
// Prints a meta line, a counts line, and last the result object. With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced (with the block replay)
// and holds the per-layer metrics. A failed correctness gate exits 3
// without a result; bad arguments exit 2. perfbench/README.md
// documents the workloads and metrics.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

using perfbench::Counts;
using perfbench::GateFailure;
using perfbench::Inject;
using perfbench::Options;
using perfbench::RunResult;

namespace {

/// Repetitions per untraced run, each with its own set-up.
constexpr int kRepetitions = 5;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

size_t CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

std::string CountsJson(const Counts& c) {
  std::string digests = "{";
  for (const auto& [shard, hex] : c.block_digests) {
    if (digests.size() > 1) digests += ", ";
    digests += Quote(std::to_string(shard)) + ": " + Quote(hex);
  }
  digests += "}";
  return "{\"chain.blocks\": " + std::to_string(c.blocks) +
         ", \"chain.empty_blocks\": " + std::to_string(c.empty_blocks) +
         ", \"core.migrations\": " + std::to_string(c.migrations) +
         ", \"net.messages\": " + std::to_string(c.messages) +
         ", \"confirmed\": " + std::to_string(c.confirmed) +
         ", \"net.msgs_per_tx\": " +
         Num(static_cast<double>(c.messages) /
             static_cast<double>(std::max<uint64_t>(c.confirmed, 1))) +
         ", \"state.accounts\": " + std::to_string(c.state_accounts) +
         ", \"block_digests\": " + digests + "}";
}

/// Per-layer metrics in BENCHMARK.json order, with their units.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"types.decode_us_per_tx", "us"},
      {"crypto.verify_us_per_tx", "us"},
      {"crypto.verify_rejected", "count"},
      {"core.submit_us_per_tx", "us"},
      {"core.submit_rejected", "count"},
      {"core.migrations", "count"},
      {"core.epoch_ms_max", "ms"},
      {"chain.mine_ms_p50", "ms"},
      {"chain.mine_ms_p99", "ms"},
      {"chain.blocks", "count"},
      {"chain.empty_blocks", "count"},
      {"chain.inclusion_ratio", "ratio"},
      {"txpool.pending_max", "count"},
      {"txpool.wait_ms_p99", "ms"},
      {"state.copy_ms_per_block", "ms"},
      {"state.root_ms_per_block", "ms"},
      {"state.accounts", "count"},
      {"chain.execute_ms_per_block", "ms"},
      {"chain.append_ms_per_block", "ms"},
      {"types.block_codec_ms_per_block", "ms"},
      {"net.msgs_per_tx", "msg/tx"},
      {"harness.gen_late_ms_p99", "ms"},
      {"harness.layer_coverage", "ratio"},
      {"harness.trace_overhead_frac", "ratio"},
  };
  return kUnits;
}

/// Samples ranked above the nearest-rank p99 sample (ties in one block
/// count): enough of them make p99 a measured value, not the maximum.
uint64_t BeyondP99(size_t samples) {
  return samples - static_cast<uint64_t>(
                       std::ceil(0.99 * static_cast<double>(samples)));
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "shardbench: %s\nusage: shardbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|toy] "
               "[--inject none|sig|block] [--commit <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scale = "full";
  std::string inject = "none";
  std::string commit = "unknown";
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      scale = value;
    } else if (flag == "--inject") {
      inject = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!have_seed) return Usage("--seed must be a whole number");
  if (scale != "full" && scale != "toy") return Usage("--scale is full or toy");
  const bool toy = scale == "toy";
  if (!perfbench::FindWorkload(workload, toy, &o.spec)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (inject == "sig") {
    o.inject = Inject::kSignature;
  } else if (inject == "block") {
    o.inject = Inject::kBlock;
  } else if (inject != "none") {
    return Usage("--inject is none, sig or block");
  }
  o.threads = CpuCount();

  // Each repetition sets up a fresh system and runs 1/kRepetitions of
  // the requested work, so memory stays that of one repetition. The
  // end-to-end metrics are medians over the repetitions: a closed loop's
  // p99 is close to its slowest round, and one slow spell of the host
  // should move one repetition, not the result.
  Options rep = o;
  rep.seconds = o.seconds / kRepetitions;
  std::vector<Metric> metrics;
  RunResult r;  // The last repetition (untraced) or the traced pass.
  uint64_t beyond_p99 = UINT64_MAX;  // Fewest in any repetition.
  size_t samples = 0;
  double wall_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  try {
    if (!o.trace) {
      std::vector<double> setup, tps, p50, p99;
      for (int i = 0; i < kRepetitions; ++i) {
        RunResult one = perfbench::RunOnce(rep);
        if (i > 0 && !(one.counts == r.counts)) {
          throw GateFailure("two repetitions of one seed did different work");
        }
        setup.push_back(one.setup_s);
        tps.push_back(static_cast<double>(one.counts.confirmed) / one.wall_s);
        p50.push_back(perfbench::Percentile(one.latency_ms, 0.50));
        p99.push_back(perfbench::Percentile(one.latency_ms, 0.99));
        beyond_p99 = std::min(beyond_p99, BeyondP99(one.latency_ms.size()));
        samples += one.latency_ms.size();
        wall_s += one.wall_s;
        attempted += one.attempted;
        failed += one.failed;
        r = std::move(one);
      }
      auto median = [](const std::vector<double>& v) {
        return perfbench::Percentile(v, 0.50);
      };
      metrics = {{"confirmed_tps", "tx/s", median(tps)},
                 {"confirm_p50_ms", "ms", median(p50)},
                 {"confirm_p99_ms", "ms", median(p99)},
                 {"confirmed_frac", "ratio",
                  static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted)},
                 {"setup_s", "s", median(setup)},
                 {"peak_rss_mb", "MiB", PeakRssMiB()}};
    } else {
      Options plain_options = rep;
      plain_options.trace = false;
      const RunResult plain = perfbench::RunOnce(plain_options);
      r = perfbench::RunOnce(rep);
      if (!(plain.counts == r.counts)) {
        throw GateFailure(
            "the traced run did different work than the untraced run");
      }
      r.layers["harness.trace_overhead_frac"] = r.wall_s / plain.wall_s - 1.0;
      for (const auto& [name, unit] : LayerUnits()) {
        metrics.push_back({name, unit, r.layers.at(name)});
      }
      beyond_p99 = BeyondP99(r.latency_ms.size());
      samples = r.latency_ms.size();
      wall_s = r.wall_s;
      attempted = r.attempted;
      failed = r.failed;
    }
    if (!toy && beyond_p99 < 10) {
      throw GateFailure("fewer than 10 latency samples lie beyond p99");
    }
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "shardbench: gate failed: %s\n", e.what());
    return 3;
  }

  std::string shares = "{";
  for (const auto& [layer, share] : r.round_shares) {
    if (shares.size() > 1) shares += ", ";
    shares += Quote(layer) + ": " + Num(share);
  }
  shares += "}";
#ifdef NDEBUG
  const char* build = "NDEBUG";
#else
  const char* build = "assertions";
#endif
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"scale\": %s, \"rate_tps\": %s, \"commit\": %s, "
      "\"build\": %s, "
      "\"hardware_concurrency\": %u, \"pool_threads\": %zu, "
      "\"repetitions\": %d, \"rounds_per_repetition\": %zu, "
      "\"epochs_per_repetition\": %zu, \"wall_s\": %s, "
      "\"forged_per_repetition\": %llu, \"latency_samples\": %zu, "
      "\"min_beyond_p99\": %llu, "
      "\"round_shares\": %s}}\n",
      Quote(workload).c_str(), static_cast<unsigned long long>(o.seed),
      Num(o.seconds).c_str(), o.trace ? 1 : 0, Quote(scale).c_str(),
      Num(o.spec.rate_tps).c_str(), Quote(commit).c_str(), Quote(build).c_str(),
      std::thread::hardware_concurrency(), o.threads,
      o.trace ? 1 : kRepetitions, r.rounds, r.epochs, Num(wall_s).c_str(),
      static_cast<unsigned long long>(r.forged), samples,
      static_cast<unsigned long long>(beyond_p99), shares.c_str());
  std::printf("{\"counts\": %s}\n", CountsJson(r.counts).c_str());
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  return 0;
}
