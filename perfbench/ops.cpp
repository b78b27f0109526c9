#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "perfbench.hpp"
#include "src/support/rng.hpp"

namespace perfbench {

namespace {

struct WorkloadInfo {
  Workload workload;
  const char* name;
  /// Ops per second of timed phase on the reference host (README.md
  /// "Reference host"); op_count scales it by --seconds.
  double nominal_ops_per_s;
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kSearchMean, "search_mean", 10.0},
    {Workload::kSearchRobust, "search_robust", 10.0},
    {Workload::kServiceCached, "service_cached", 3000.0},
};

const WorkloadInfo& info(Workload workload) {
  for (const WorkloadInfo& w : kWorkloads)
    if (w.workload == workload) return w;
  std::terminate();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> out;
    for (const WorkloadInfo& w : kWorkloads) out.push_back(w.workload);
    return out;
  }();
  return workloads;
}

const char* workload_name(Workload workload) { return info(workload).name; }

std::optional<Workload> parse_workload(std::string_view name) {
  for (const WorkloadInfo& w : kWorkloads)
    if (name == w.name) return w.workload;
  return std::nullopt;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index);
}

std::size_t op_count(Workload workload, int seconds) {
  const double nominal = info(workload).nominal_ops_per_s * seconds;
  return std::max(kMinOps, static_cast<std::size_t>(nominal));
}

std::vector<Op> make_ops(Workload workload, std::uint64_t seed, int seconds) {
  // search_mean and search_robust share one op list per seed (stream 1),
  // so the two workloads differ only in the aggregation.
  const std::uint64_t stream = workload == Workload::kServiceCached ? 2 : 1;
  std::vector<Op> ops(op_count(workload, seconds));
  automap::Rng pick(derive_seed(seed, stream, ~0ULL));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].search_seed = derive_seed(seed, stream, i);
    if (workload == Workload::kServiceCached)
      ops[i].request = pick.uniform_index(kCachedRequests);
  }
  return ops;
}

double run_closed_loop(std::size_t num_ops, int clients,
                       const std::function<void(std::size_t op)>& run_op) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto client = [&] {
    try {
      for (std::size_t op = next++; op < num_ops; op = next++) run_op(op);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      next = num_ops;  // let the other clients stop after their current op
    }
  };
  const std::int64_t start = now_ns();
  if (clients <= 1) {
    client();
  } else {
    std::vector<std::thread> threads;
    try {
      for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    } catch (...) {
      next = num_ops;
      for (std::thread& t : threads) t.join();
      throw;
    }
    for (std::thread& t : threads) t.join();
  }
  const std::int64_t end = now_ns();
  if (error) std::rethrow_exception(error);
  return (end - start) * 1e-9;
}

}  // namespace perfbench
