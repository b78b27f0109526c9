// perfbench — runs one workload of the end-to-end benchmark and prints its
// metrics; see README.md. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last stdout line is the result object
// {"correct","attempted","failed","metrics"}; everything before it is the
// human-readable report. Run from the repository root: scratch files go to
// .bench_run/ and span files to .bench_out/.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "src/io/text_io.hpp"
#include "src/support/json.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// Where traced runs write their span files.
constexpr const char* kOutDir = ".bench_out";

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload "
               "search_mean|search_robust|service_cached "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_percentile(const char* name, const Percentile& p) {
  std::cout << name << " = " << p.value << " ms (" << p.samples << " samples, "
            << p.beyond << " beyond)\n";
}

/// Times are at the reference host's speed (README.md "Host speed"). In a
/// closed loop without think time, throughput is clients ÷ mean latency.
std::map<std::string, double> end_to_end_values(const RunResult& r) {
  const std::optional<Percentile> p50 = percentile(r.latency_ms, 0.5);
  const std::optional<Percentile> p90 = percentile(r.latency_ms, 0.9);
  if (!p50 || !p90)
    throw std::logic_error("too few ops for a p90 with 10 samples beyond it");
  print_percentile("latency_ms.p50", *p50);
  print_percentile("latency_ms.p90", *p90);
  std::cout << "ops_per_s (wall) = "
            << static_cast<double>(r.attempted - r.failed) / r.timed_wall_s
            << "\nerror_rate = " << r.failed << "/" << r.attempted << "\n";
  return {{"latency_ms.p50", p50->value},
          {"latency_ms.p90", p90->value},
          {"ops_per_s", r.clients / (mean(r.latency_ms) * 1e-3)},
          {"speedup_vs_default", r.speedup_vs_default},
          {"sim_search_s", r.sim_search_s},
          {"setup_s", median(r.setup_s)},
          {"peak_rss_mb", peak_rss_mb()}};
}

std::map<std::string, double> per_layer_values(const RunResult& r) {
  std::map<std::string, double> values = r.layer;
  const std::optional<Percentile> p50 = percentile(r.latency_ms, 0.5);
  if (!p50) throw std::logic_error("too few ops for a traced p50");
  print_percentile("trace.latency_ms.p50", *p50);
  values["trace.latency_ms.p50"] = p50->value;
  values["host.slowdown"] = run_slowdown();
  for (const MetricSpec& spec : per_layer_metrics()) {
    if (values.count(spec.name) != 0) continue;
    std::cout << spec.name << " = 0 (layer not on this workload's path)\n";
    values[spec.name] = 0.0;
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::optional<Workload> workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        workload = parse_workload(value);
        if (!workload) return usage("unknown workload " + value);
      } else if (flag == "--seed") {
        config.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        config.seconds = std::stoi(value, &used);
        have_seconds = used == value.size() && config.seconds >= 1 &&
                       config.seconds <= 600;
      } else if (flag == "--trace") {
        have_trace = value == "0" || value == "1";
        config.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds (1..600) and --trace 0|1 are required");
  config.workload = *workload;
  config.run_dir = std::string(".bench_run/") + workload_name(*workload) + "-" +
                   std::to_string(::getpid());

  RunResult result;
  std::string store_fs;
  try {
    fs::create_directories(config.run_dir);
    store_fs = filesystem_name(config.run_dir);
    SpanRecorder spans(config.trace);
    const bool search = config.workload == Workload::kSearchMean ||
                        config.workload == Workload::kSearchRobust;
    result = search ? run_search_workload(config, spans)
                    : run_cached_workload(config, spans);
    std::cout << "host slowdown " << run_slowdown()
              << " (median of the reference bursts run beside the ops)\n";
    std::cout << "workload " << workload_name(config.workload) << " seed "
              << config.seed << (config.trace ? " (traced)" : "") << ": "
              << result.attempted << " ops in " << result.timed_wall_s
              << " s of timed phase\n"
              << "host: nproc " << std::thread::hardware_concurrency()
              << ", compiler " << kCompiler << ", build "
              << PERFBENCH_BUILD_TYPE << ", store filesystem " << store_fs << "\n"
              << "digest " << automap::hex_u64(result.digest)
              << " (every returned mapping and best time, in op order)\n";
    std::cout << "setup_s repetitions:";
    for (const double s : result.setup_s) std::cout << " " << s;
    std::cout << "\n";
    for (std::size_t i = 0; i < result.failures.size() && i < 10; ++i)
      std::cout << "check failed: " << result.failures[i] << "\n";
    if (config.trace) {
      fs::create_directories(kOutDir);
      const std::string path = std::string(kOutDir) + "/" +
                               workload_name(config.workload) + "-seed" +
                               std::to_string(config.seed) + ".trace.json";
      automap::save_text(path, spans.chrome_trace());
      std::cout << "wrote " << path << " (" << spans.spans().size()
                << " spans; open in Perfetto)\n";
    }
    const bool correct = result.failures.empty() && result.failed == 0;
    const std::map<std::string, double> values =
        config.trace ? per_layer_values(result) : end_to_end_values(result);
    fs::remove_all(config.run_dir);
    std::cout << render_result_line(
                     correct, result.attempted, result.failed,
                     config.trace ? per_layer_metrics() : end_to_end_metrics(),
                     values)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(config.run_dir, ec);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
