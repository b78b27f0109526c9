#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>

#include "perfbench.hpp"

namespace perfbench {

namespace {

/// Dependence-relaxation rounds and text scans per burst: about 2 ms on
/// the reference host.
constexpr int kRelaxRounds = 4;
constexpr int kTextScans = 2;

/// The event-loop half: max-plus relaxation over a fixed random DAG with
/// log-normal noise, the shape of a simulator run (small working set,
/// dependent loads, libm-heavy draws).
double relax_kernel() {
  constexpr int kTasks = 4096;
  static const std::vector<std::pair<int, int>> preds = [] {
    std::mt19937_64 g(1);
    std::vector<std::pair<int, int>> out(kTasks);
    for (int i = 1; i < kTasks; ++i)
      out[i] = {static_cast<int>(g() % i), static_cast<int>(g() % i)};
    return out;
  }();
  std::vector<double> finish(kTasks, 0.0);
  std::mt19937_64 g(7);
  std::lognormal_distribution<double> noise(0.0, 0.05);
  double total = 0.0;
  for (int r = 0; r < kRelaxRounds; ++r) {
    for (int i = 0; i < kTasks; ++i)
      finish[i] = std::max(finish[preds[i].first], finish[preds[i].second]) +
                  1e-3 * noise(g);
    total += finish[kTasks - 1];
  }
  return total;
}

/// The request-handling half: tokenizing a fixed text into numbers
/// (strtod) and heap-allocated names counted in a map, the shape of graph
/// and JSON parsing (allocation-heavy, branchy).
double text_kernel() {
  static const std::string text = [] {
    std::mt19937_64 g(2);
    std::string out;
    for (int i = 0; i < 1000; ++i)
      out += "group_task_point_" + std::to_string(i) + " " +
             std::to_string(static_cast<double>(g() % 100000) / 7.0) +
             " collection_region_" + std::to_string(g() % 300) + "\n";
    return out;
  }();
  double total = 0.0;
  for (int r = 0; r < kTextScans; ++r) {
    std::map<std::string, int> names;
    const char* p = text.c_str();
    const char* end = p + text.size();
    while (p < end) {
      const char* token = p;
      while (p < end && *p != ' ' && *p != '\n') ++p;
      if (token == p) {
        ++p;
      } else if (*token >= '0' && *token <= '9') {
        total += std::strtod(token, nullptr);
      } else {
        ++names[std::string(token, p)];
      }
    }
    total += static_cast<double>(names.size());
  }
  return total;
}

}  // namespace

double reference_burst_seconds() {
  const std::int64_t start = now_ns();
  volatile double sink = relax_kernel() + text_kernel();
  (void)sink;
  return (now_ns() - start) * 1e-9;
}

namespace {

std::mutex bursts_mutex;
std::vector<double> all_bursts;  // guarded by bursts_mutex

}  // namespace

double local_slowdown(std::size_t every) {
  thread_local std::size_t calls = 0;
  thread_local double slowdown = 1.0;
  if (calls++ % every == 0) {
    // The first burst refills the caches the previous op evicted; the
    // second, warm one is timed, like the reference host's calibration.
    (void)reference_burst_seconds();
    const double burst = reference_burst_seconds();
    slowdown = burst / kReferenceBurstSeconds;
    const std::lock_guard<std::mutex> lock(bursts_mutex);
    all_bursts.push_back(burst);
  }
  return slowdown;
}

double run_slowdown() {
  const std::lock_guard<std::mutex> lock(bursts_mutex);
  return median(all_bursts) / kReferenceBurstSeconds;
}

}  // namespace perfbench
