#pragma once

// Common search-layer types: options, statistics, results, and the starting
// point shared by the coordinate-descent algorithms (§4.1).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class Journal;
class MetricsRegistry;
class ThreadPool;
struct JsonValue;
struct SimOptions;

/// What the search minimizes (§3.3: execution time by default, but AutoMap
/// is suitable for other metrics such as power/energy).
enum class Objective {
  kExecutionTime,
  kEnergy,
};

/// How the surviving repeats of one candidate fold into its recorded value.
/// The mean is the paper's protocol; a straggler-polluted mean misranks
/// candidates, so under fault injection the robust alternatives resist
/// right-tail outliers. Incumbent-bounded censoring races a running *sum*
/// against the threshold, which is only meaningful for the mean, so the
/// robust aggregations disable censoring.
enum class Aggregation {
  kMean,
  kMedian,
  kTrimmedMean,  ///< Mean with the single min and max repeat dropped.
};

/// How the evaluator responds to transient faults (ExecutionReport::
/// transient): bounded retry, per-candidate quarantine, robust folding.
/// Inert when the simulator's FaultModel is disabled — transient failures
/// then never occur, and the policy's arithmetic reduces to today's exact
/// mean protocol bit for bit.
struct ResiliencePolicy {
  /// Re-attempts per repeat after a transient failure (each with a fresh
  /// derived seed). 0 = a transient failure immediately loses the repeat.
  int max_retries = 2;
  /// Consecutive lost repeats after which the candidate is quarantined:
  /// recorded as failed in the profiles database and never re-run under
  /// this search (the cache answers all later proposals). 0 disables
  /// quarantine (every repeat is still attempted).
  int quarantine_after = 3;
  /// Simulated seconds charged to the search clock per retry, doubling per
  /// attempt (budget-aware backoff, like the existing OOM observation
  /// cost). Negative = use the machine's restart_overhead().
  double retry_backoff_s = -1.0;
  Aggregation aggregation = Aggregation::kMean;
};

struct SearchOptions {
  /// CCD rotations (paper: 5; more cost time without gains, fewer reduce
  /// CCD to CD, §5).
  int rotations = 5;
  /// Runs averaged per candidate evaluation (paper: 7).
  int repeats = 7;
  /// Simulated wall-clock budget for the search; infinity = run to
  /// completion (CCD/CD terminate on their own; the ensemble tuner needs a
  /// budget).
  double time_budget_s = std::numeric_limits<double>::infinity();
  /// Seed for evaluation noise and randomized techniques.
  std::uint64_t seed = 0;
  /// Finalist protocol (§5): the top_k best mappings are re-run
  /// final_repeats times and the fastest mean wins.
  int top_k = 5;
  int final_repeats = 31;
  /// §3.1 generalization: append lower-bandwidth fallback memories to every
  /// argument's priority list so over-capacity choices demote instead of
  /// failing — used by the memory-constrained experiments (Fig. 8).
  bool memory_fallbacks = false;
  /// Metric to minimize. Search *time* accounting always uses execution
  /// time (that is what a real offline search pays), whichever objective
  /// ranks the candidates.
  Objective objective = Objective::kExecutionTime;
  /// Extension beyond the paper (its stated future work): also search the
  /// point-to-node distribution strategy (blocked vs round-robin) of each
  /// group task — the dimension whose absence lets Circuit's custom mapper
  /// win on some inputs (§5 "Results").
  bool search_distribution_strategies = false;
  /// §3.3: the search space may cover "all or a subset of tasks". Tasks
  /// listed here keep their starting-point mapping and are never touched
  /// by any algorithm — how Maestro pins its high-fidelity sample to the
  /// GPUs while only the low-fidelity ensemble is tuned (§5.1).
  std::vector<TaskId> frozen_tasks;
  /// Serialized profiles database from a previous search (Figure 4's
  /// persistent measurement store): candidates already measured return
  /// their cached means without re-execution, so an interrupted or
  /// incremental search resumes cheaply. Produced by
  /// SearchResult::profiles_db.
  std::string profiles_seed;
  /// Worker threads for batch candidate evaluation (simulated runs are
  /// independent per seed, so candidates fan out). Results are
  /// bit-identical for every value; 1 disables the pool, 0 means one lane
  /// per hardware thread.
  int threads = 1;
  /// Incumbent-bounded candidate pruning: bounded simulation aborts a
  /// candidate's runs as soon as it provably cannot beat the caller's
  /// interest bound or displace the current top-k finalists (it is then
  /// *censored* — folded to the censor threshold and cached as such). The
  /// censoring arithmetic and clock charges are applied identically with
  /// the flag off, so the search result — best mapping, counters, simulated
  /// clock, trajectory — is bit-identical either way at any thread count;
  /// the flag only controls whether the simulator skips the wall-clock work
  /// past the bound. Only effective under Objective::kExecutionTime.
  bool prune_candidates = true;
  /// Serialize the profiles database into SearchResult::profiles_db at
  /// finalize. On by default; callers that never reuse the database (e.g.
  /// one-shot benchmark searches) can turn it off — a long search
  /// accumulates tens of thousands of entries, and serializing them can
  /// rival the evaluation work itself.
  bool export_profiles_db = true;
  /// Retry / quarantine / aggregation behaviour under fault injection.
  ResiliencePolicy resilience;
  /// When non-empty, CCD/CD periodically serialize their search state
  /// (incumbent, rotation position, profiles database) to this file —
  /// atomically, so a kill mid-write leaves the previous checkpoint intact.
  std::string checkpoint_path;
  /// Contents of a checkpoint file written via checkpoint_path; when
  /// non-empty, CCD/CD resume from that state instead of starting fresh.
  std::string resume_state;
  /// Provenance journal (src/report/journal.hpp). When set, the algorithms
  /// and the evaluator append typed JSONL events for every decision; the
  /// emission sites all sit on the serial fold side, so the journal is
  /// byte-identical at any `threads` value. Null disables all emission.
  Journal* journal = nullptr;
  /// Metrics registry (src/support/metrics.hpp). When set, the evaluator
  /// and algorithms update counters/gauges/histograms; pair it with
  /// SimOptions::metrics for raw simulator run counts. Null disables.
  MetricsRegistry* metrics = nullptr;
  /// Fold-side cadence (in consumed candidates) at which the evaluator
  /// appends a deterministic metrics snapshot to the journal; rotation
  /// boundaries always snapshot too. <= 0 disables periodic snapshots.
  int journal_snapshot_every = 256;
  /// Service mode: schedule candidate batches on this externally owned
  /// pool instead of constructing a private one (`threads` is then
  /// ignored for pool sizing). Several concurrent searches may share one
  /// pool — results stay bit-identical because folding remains serial per
  /// search. The pool must outlive the search. Runtime wiring, excluded
  /// from the canonical JSON codec like journal/metrics.
  ThreadPool* shared_pool = nullptr;
  /// Priority class for batches submitted to the shared pool (higher
  /// drains first; deficit-round-robin across streams within a class).
  /// Only meaningful with shared_pool; the service maps job priority onto
  /// it.
  int pool_priority = 0;
  /// Fair-share stream id for batches submitted to the shared pool: the
  /// pool interleaves equal-priority batches from different streams
  /// deficit-round-robin instead of draining them in arrival order. The
  /// service uses the job id; 0 (the default) is fine for searches that
  /// never compete. Runtime wiring, excluded from the canonical codec.
  std::uint64_t pool_stream = 0;
  /// Cooperative cancellation token (runtime wiring, excluded from the
  /// canonical JSON codec like shared_pool). When non-null and set, the
  /// evaluator reports the budget as exhausted: the search cuts at the
  /// next fold boundary exactly like a simulated-budget cut, the CCD/CD
  /// loops skip the post-cut checkpoint (leaving the last task-boundary
  /// checkpoint on disk, from which a resume is byte-identical to an
  /// uninterrupted run), and finalize() skips the finalist reruns — the
  /// returned result is partial and meant to be discarded.
  const std::atomic<bool>* cancel = nullptr;
  /// Called right after each checkpoint write with the (rotation,
  /// position) the checkpoint resumes at. Runtime wiring, excluded from
  /// the canonical codec; the service's flight recorder hangs
  /// "checkpointed" markers on a running job's span timeline through it.
  std::function<void(int rotation, int position)> on_checkpoint;
};

/// Canonical JSON codec for the deterministic subset of SearchOptions —
/// everything that decides the search outcome (seed, rotations, repeats,
/// budget, objective, resilience, frozen tasks, …) and nothing that is
/// runtime wiring (threads, pools, journal/metrics pointers, file paths,
/// profile seeds). One encoding serves three consumers: the CLI
/// (--options / --dump-options), the journal's `search_begin` fingerprint
/// and the service wire protocol.
///
/// The rendering is deterministic: fixed field order, %.17g doubles with
/// non-finite values quoted ("inf"), the 64-bit seed as a string. Any
/// incompatible change bumps the leading "schema" field.
inline constexpr int kSearchOptionsSchema = 1;
[[nodiscard]] std::string search_options_to_json(const SearchOptions& o);
/// Strict inverse: starts from defaults, applies present members, throws
/// Error on an unknown key, a mistyped value or an unsupported schema —
/// wire requests are validated by construction.
[[nodiscard]] SearchOptions search_options_from_json(const JsonValue& v);
[[nodiscard]] SearchOptions search_options_from_json(const std::string& text);

/// Same codec for the simulator configuration that travels with a search
/// (iterations, noise, fault model). record_trace / metrics stay out:
/// they are runtime wiring, not search identity.
[[nodiscard]] std::string sim_options_to_json(const SimOptions& o);
[[nodiscard]] SimOptions sim_options_from_json(const JsonValue& v);
[[nodiscard]] SimOptions sim_options_from_json(const std::string& text);

/// Indexed frozen-task lookup (§3.3 subset search), built once per search.
/// SearchOptions::frozen_tasks is a plain list; scanning it for every task
/// on every coordinate visit made the membership test O(frozen) on the
/// search's hottest loop, so algorithms build one of these instead.
class FrozenTaskSet {
 public:
  FrozenTaskSet() = default;
  /// Validates that every id is < num_tasks (throws Error otherwise).
  FrozenTaskSet(const std::vector<TaskId>& tasks, std::size_t num_tasks);

  [[nodiscard]] bool contains(TaskId task) const {
    return task.index() < mask_.size() && mask_[task.index()];
  }
  [[nodiscard]] bool empty() const { return count_ == 0; }

 private:
  std::vector<bool> mask_;
  std::size_t count_ = 0;
};

/// One point of the Fig. 9 search-progress curves.
struct TrajectoryPoint {
  double search_time_s = 0.0;
  double best_exec_s = 0.0;
};

/// Telemetry of one CCD/CD rotation: what the rotation started from, what
/// it reached, and what it cost — the per-rotation improvement deltas of
/// the observability layer. Deterministic (derived from folded statistics),
/// so thread-count invariance extends to it.
struct RotationTelemetry {
  int rotation = 0;
  /// Best mean before/after the rotation (infinity before any success).
  double best_before_s = std::numeric_limits<double>::infinity();
  double best_after_s = std::numeric_limits<double>::infinity();
  /// Cumulative evaluated count and simulated clock at rotation end.
  std::size_t evaluated = 0;
  double search_time_s = 0.0;

  [[nodiscard]] double improvement_s() const {
    if (std::isinf(best_before_s) || std::isinf(best_after_s)) return 0.0;
    return best_before_s - best_after_s;
  }
};

struct SearchStats {
  /// Mappings proposed by the algorithm (§5.3: CCD 1941, CD 389, OT 157k).
  std::size_t suggested = 0;
  /// Distinct mappings actually executed (§5.3: 460 / 226 / 273).
  std::size_t evaluated = 0;
  /// Proposals rejected without execution: constraint-1 violations.
  std::size_t invalid = 0;
  /// Executions that failed with an out-of-memory error.
  std::size_t oom = 0;
  /// Executions censored at the batch's censor threshold: the candidate
  /// provably could not beat the incumbent or enter the top-k, so its runs
  /// were cut off at the budget (identical count with pruning on or off —
  /// the flag only decides whether the cut saves wall-clock time).
  std::size_t censored = 0;
  /// Proposals answered from the profiles database without execution (the
  /// "suggested minus evaluated" gap of §5.3, counted directly).
  std::size_t cache_hits = 0;
  /// Injected transient faults observed across all runs (crash / memory
  /// pressure); zero when the FaultModel is disabled.
  std::size_t transient_failures = 0;
  /// Re-attempts issued by the resilience policy (each charged backoff).
  std::size_t retries = 0;
  /// Candidates quarantined after consecutive lost repeats; cached as
  /// failed and never re-run under this search.
  std::size_t quarantined = 0;
  /// The finalist protocol could not profile any finalist (fault rate made
  /// every rotation unprofilable); the result carries the best-known
  /// incumbent instead of a finalist-verified winner.
  bool degraded = false;
  /// Total simulated search time and the share spent executing candidates
  /// (§5.3: 99 % for CCD/CD, 13-45 % for OpenTuner).
  double search_time_s = 0.0;
  double evaluation_time_s = 0.0;
  /// Real (wall-clock) seconds the search took, as opposed to the simulated
  /// clock above. Not deterministic; excluded from invariance checks.
  double wall_time_s = 0.0;
  /// Per-rotation improvement deltas (CCD/CD only; empty otherwise).
  std::vector<RotationTelemetry> rotations;

  [[nodiscard]] double evaluation_fraction() const {
    return search_time_s > 0.0 ? evaluation_time_s / search_time_s : 0.0;
  }
  [[nodiscard]] double cache_hit_rate() const {
    return suggested > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(suggested)
               : 0.0;
  }
};

struct SearchResult {
  std::string algorithm;
  Mapping best;
  /// Mean objective value (seconds, or joules under Objective::kEnergy) of
  /// the winning mapping under the finalist protocol.
  double best_seconds = std::numeric_limits<double>::infinity();
  SearchStats stats;
  std::vector<TrajectoryPoint> trajectory;
  /// Serialized profiles database accumulated by this search; feed it back
  /// via SearchOptions::profiles_seed to resume or refine.
  std::string profiles_db;
};

/// The one-line search summary the CLI prints ("AM-CCD: best mapping …
/// (99% evaluating)"). Shared verbatim by the service result payload so a
/// daemon response is byte-comparable to the one-shot CLI output.
[[nodiscard]] std::string render_search_summary(const SearchResult& result);

/// The §4.1 starting point: group tasks distributed across all nodes, every
/// task with a GPU variant on the GPU, collections in the chosen
/// processor's highest-bandwidth memory (Frame-Buffer for GPU tasks).
[[nodiscard]] Mapping search_starting_point(const TaskGraph& graph,
                                            const MachineModel& machine);

/// Size of the kind-level search space, log2 (the Fig. 5 "Search Space
/// Size" column): distribution x processor kinds per task, memory kinds
/// per collection argument.
[[nodiscard]] double search_space_log2(const TaskGraph& graph,
                                       const MachineModel& machine);

}  // namespace automap
