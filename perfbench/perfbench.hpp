#pragma once

// End-to-end benchmark of the automap library and its mapping daemon.
//
// Three closed-loop workloads (README.md "Workloads") each run a fixed list
// of operations generated from the workload seed; the run ends when the
// last op completes, never on a clock. The untraced run reports the
// end-to-end metrics; the traced run wraps every call the benchmark makes
// into a layer in a span and derives the per-layer metrics from those
// spans.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/metrics.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace perfbench {

// --- Workloads and their op lists (ops.cpp) ---------------------------

enum class Workload { kSearchMean, kSearchRobust, kServiceCached };

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const char* workload_name(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Every run has at least this many ops, so a p90 has >= 10 samples
/// beyond it.
inline constexpr std::size_t kMinOps = 100;

/// One operation of a run. search_* use `search_seed` (every op is a
/// distinct search); service_cached uses `request`, an index into the
/// run's fixed request set.
struct Op {
  std::uint64_t search_seed = 0;
  std::size_t request = 0;

  bool operator==(const Op&) const = default;
};

/// Ops per run: the workload's nominal rate on the reference host times
/// `seconds`, and never fewer than kMinOps.
[[nodiscard]] std::size_t op_count(Workload workload, int seconds);

/// The run's op list — a pure function of its arguments.
[[nodiscard]] std::vector<Op> make_ops(Workload workload, std::uint64_t seed,
                                       int seconds);

/// Independent 64-bit stream value `index` of `stream` under `seed`
/// (splitmix64 over the mixed triple).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// Requests in service_cached's fixed set.
inline constexpr std::size_t kCachedRequests = 24;

/// Runs ops 0..num_ops-1 on `clients` threads; each client claims the next
/// unclaimed op as soon as its previous one returns (closed loop). Returns
/// the wall seconds from the start of the first op to the end of the last.
/// The loop ends only when every op has run: there is no deadline.
double run_closed_loop(std::size_t num_ops, int clients,
                       const std::function<void(std::size_t op)>& run_op);

// --- Statistics and reporting (report.cpp) -----------------------------

/// A nearest-rank percentile together with its sample counts.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly after the percentile's rank.
  std::size_t beyond = 0;
};

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or nullopt when
/// fewer than 10 samples lie beyond it — such a percentile is not printed.
[[nodiscard]] std::optional<Percentile> percentile(std::vector<double> samples,
                                                   double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Metric names are at most 64 characters of [A-Za-z0-9_.-] and start
/// with a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

/// The metrics an untraced run prints (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The metrics a traced run prints (BENCHMARK.json "per_layer").
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// The final stdout line: {"correct","attempted","failed","metrics"}.
/// Throws when a spec has no value, a value is not finite, or a name is
/// not a valid metric name.
[[nodiscard]] std::string render_result_line(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<MetricSpec>& specs,
    const std::map<std::string, double>& values);

/// 64-bit FNV-1a, chained through `state` — the output digest.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t state = 0xcbf29ce484222325ULL);

// --- Spans (spans.cpp) --------------------------------------------------

/// One timed call into a layer: name, steady-clock start/end, the span
/// that caused it, the op it belongs to (-1 outside ops) and a work count
/// (events, draws, calls) for per-unit rates.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t op = -1;
  std::uint64_t work = 0;
  int lane = 0;

  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// In-memory span store. Disabled recorders cost one branch per scope;
/// enabled ones take a mutex per finished span. Written out only at the
/// end of the run.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: starts at construction, records at destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::uint64_t parent = 0,
          std::int64_t op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const { return span_.id; }
    void set_work(std::uint64_t work) { span_.work = work; }

   private:
    SpanRecorder& recorder_;
    Span span_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  /// Spans named `name`.
  [[nodiscard]] std::vector<Span> named(std::string_view name) const;
  /// Chrome trace JSON (loads in Perfetto): one row per thread.
  [[nodiscard]] std::string chrome_trace() const;

 private:
  void add(Span span);
  int lane_locked();

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
  std::map<std::size_t, int> lanes_;
};

/// Steady-clock nanoseconds since an arbitrary epoch.
[[nodiscard]] std::int64_t now_ns();

/// Median duration (in `scale` units per second) of spans named `name`,
/// or 0 when there are none.
[[nodiscard]] double median_span(const SpanRecorder& spans,
                                 std::string_view name, double scale);
/// Total duration of spans named `name` divided by their total work, in
/// nanoseconds per unit (0 when there is no work).
[[nodiscard]] double ns_per_work(const SpanRecorder& spans,
                                 std::string_view name);

// --- Host speed (host_speed.cpp) ---------------------------------------

/// Median reference_burst_seconds() on the reference host (README.md
/// "Reference host").
inline constexpr double kReferenceBurstSeconds = 2.0e-3;

/// Runs a fixed reference kernel once — dependence relaxation with
/// log-normal noise plus tokenizing a text — and returns its wall seconds.
/// The kernel is the benchmark's own code, so no library change moves it;
/// it slows down with the host.
[[nodiscard]] double reference_burst_seconds();

/// How much slower than the reference host the calling thread's core runs
/// (1 = same speed). Every `every`-th call on a thread runs a reference
/// burst on that thread and refreshes the value; the calls in between
/// return the latest one. The host's speed drifts by a third for minutes
/// at a time and differs between cores, so ops are scaled by a burst run
/// next to them on their own thread.
[[nodiscard]] double local_slowdown(std::size_t every);
/// Median of every burst local_slowdown ran so far, as a slowdown.
[[nodiscard]] double run_slowdown();

// --- Inputs and layer probes (layers.cpp) ------------------------------

/// Seed and repeat count of every measure_mapping call (default-mapper
/// reference and returned mappings alike).
inline constexpr std::uint64_t kMeasureSeed = 20230101;
inline constexpr int kMeasureRepeats = 31;

/// One application on the one-node Shepard machine, prepared the way
/// `automap_cli search` loads it: graph and machine round-trip through
/// their text formats and the simulator uses the CLI's default SimOptions
/// (plus an optional metrics registry for the traced run's run counters).
/// Also holds the DefaultMapper reference time.
class AppInputs {
 public:
  AppInputs(const std::string& app, automap::MetricsRegistry* metrics);
  AppInputs(const AppInputs&) = delete;
  AppInputs& operator=(const AppInputs&) = delete;

  const std::string machine_text;
  const std::string graph_text;
  const automap::MachineModel machine;
  const automap::TaskGraph graph;
  const automap::Simulator sim;
  /// measure_mapping of the DefaultMapper mapping.
  const double default_s;
};

/// Problems found by the output checks; empty when every check passed.
using CheckFailures = std::vector<std::string>;

/// Checks that `mapping` satisfies the mapping constraints and fits in
/// memory; appends a failure naming `what` otherwise.
void check_mapping(const AppInputs& in, const automap::Mapping& mapping,
                   const std::string& what, CheckFailures& failures);

/// DefaultMapper time / returned-mapping time, both from measure_mapping.
[[nodiscard]] double speedup_vs_default(const AppInputs& in,
                                        const automap::Mapping& mapping);

/// Repetitions of each timed probe in the traced run.
inline constexpr int kProbeRepeats = 5;

/// Traced-run probes; each records spans (named in README.md "Per-layer
/// metrics") around the library calls it times.
///
/// probe_persistence: serialize_state of an evaluator seeded with
/// `profiles_db`, and save_checksummed of that state into `dir`.
void probe_persistence(const AppInputs& in, const std::string& profiles_db,
                       const std::string& dir, SpanRecorder& spans);
/// probe_parsing: parse_json of `request_json`, and the graph and machine
/// texts of `in` through their parsers.
void probe_parsing(const std::string& request_json, const AppInputs& in,
                   SpanRecorder& spans);

/// The canonical submit request for one search of `in`.
[[nodiscard]] std::string submit_request(const AppInputs& in,
                                         const automap::SearchOptions& options);

// --- Workloads (search_workloads.cpp, service_workloads.cpp) -----------

struct RunConfig {
  Workload workload = Workload::kSearchMean;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (store, sockets, probe files);
  /// removed when the run ends.
  std::string run_dir;
};

struct RunResult {
  std::size_t attempted = 0;
  /// Ops that failed, were refused, got an error answer or failed a check.
  std::size_t failed = 0;
  CheckFailures failures;
  /// Per-op client-side latency of the timed phase at the reference
  /// host's speed (wall ÷ local_slowdown), milliseconds.
  std::vector<double> latency_ms;
  /// Closed-loop clients of the timed phase.
  int clients = 1;
  double timed_wall_s = 0.0;
  /// Seconds of each set-up repetition at the reference host's speed.
  std::vector<double> setup_s;
  double speedup_vs_default = 0.0;
  double sim_search_s = 0.0;
  /// Digest of every returned mapping and best time, in op order.
  std::uint64_t digest = 0;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layer;
};

/// Runs search_mean or search_robust.
RunResult run_search_workload(const RunConfig& config, SpanRecorder& spans);
/// Runs service_cached.
RunResult run_cached_workload(const RunConfig& config, SpanRecorder& spans);

}  // namespace perfbench
