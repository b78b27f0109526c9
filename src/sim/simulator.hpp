#pragma once

// Distributed-machine execution simulator.
//
// This is the substrate that replaces the paper's physical clusters: given a
// machine model, a task graph and a mapping, it simulates a run and returns
// a (noisy) execution time, exactly the black-box signal AutoMap's dynamic
// search consumes. The model charges:
//
//   * compute: per-point work on the chosen processor kind, executed in
//     waves over the node's processor pool (a 1-GPU node serializes group
//     points; a 48-core CPU pool runs 48 at a time);
//   * launch overhead: fixed per point per kind — the term that makes small
//     weak-scaled inputs favour CPU mappings, as in the paper's Fig. 6;
//   * memory access: bytes touched per point over the processor->memory
//     affinity bandwidth (Frame-Buffer fast, Zero-Copy slow across PCIe);
//     System memory additionally pays a NUMA penalty for the half of a CPU
//     pool on the far socket (the paper's Stencil System-vs-ZeroCopy
//     observation, §5);
//   * data movement: copies inferred from producer/consumer memory-kind and
//     distribution mismatches, with per-channel serialization, intra-node
//     vs inter-node bandwidths, and gather/scatter for leader-only groups;
//   * capacity: an allocation pass walks each argument's memory priority
//     list and fails the run (OOM) when nothing fits (§3.1, §5.2);
//   * noise: multiplicative log-normal run-to-run variation, so the driver
//     must average repeated runs like the real system does.
//
// Because the search is dynamic-profiling-driven, simulator throughput *is*
// search throughput (§4–5): the search evaluates thousands of mappings
// against the same (graph, machine) pair. The simulator therefore
// front-loads every mapping-independent quantity at construction — a CSR
// view of the dependence edges, per-(task, processor kind, distribution)
// wave/duration invariants, per-argument memory-access times for every
// resolvable memory kind, and flat affinity/channel tables. Per mapping,
// begin_runs() validates it, resolves memory placement and compiles an
// execution plan into a reusable SimScratch arena; run_prepared() then
// simulates one run per seed against that plan with no heap allocation.

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/sim/report.hpp"
#include "src/support/rng.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class Counter;
class MetricsRegistry;

/// Deterministic fault-injection model. All probabilities are per-event
/// Bernoulli draws from a dedicated fault RNG stream derived from the
/// (seed, mapping) pair — the same derivation discipline as the noise
/// stream, so results stay bit-identical at any thread count, and a
/// disabled model makes *zero* draws (fault-free configs reproduce the
/// pre-fault-layer results bit for bit).
struct FaultModel {
  /// Per-task probability of a transient crash. The crash point is sampled
  /// uniformly inside the task's execution window; the run aborts there
  /// with ExecutionReport::transient set.
  double crash_prob = 0.0;
  /// Per-task probability of a straggler event: the task's duration is
  /// multiplied by `straggler_factor` (slow node, contended NIC, GC pause).
  double straggler_prob = 0.0;
  double straggler_factor = 4.0;
  /// Per-run probability of a transient memory-pressure window: every
  /// allocation's usable capacity shrinks to `mem_pressure_headroom` of
  /// nominal for the run, so a mapping that normally fits can fail with a
  /// transient OOM.
  double mem_pressure_prob = 0.0;
  double mem_pressure_headroom = 0.75;
  /// Per-copy-leg probability of a channel fault: the leg's first attempt
  /// is lost and the copy is re-issued (the leg takes twice its time).
  double copy_fault_prob = 0.0;

  [[nodiscard]] bool enabled() const {
    return crash_prob > 0.0 || straggler_prob > 0.0 ||
           mem_pressure_prob > 0.0 || copy_fault_prob > 0.0;
  }
};

struct SimOptions {
  /// Main-loop iterations to simulate.
  int iterations = 10;
  /// Log-normal sigma of per-task execution noise; 0 disables noise.
  double noise_sigma = 0.05;
  /// Record per-task/per-copy timeline events in the report (costs memory;
  /// off during search, on for visualization).
  bool record_trace = false;
  /// Deterministic fault injection; disabled by default.
  FaultModel faults;
  /// Raw simulator run counters (src/support/metrics.hpp). These count
  /// every simulated run, including the speculative tail a thread pool
  /// pre-executes past an early-stopping fold — so they are NOT
  /// thread-count invariant and are registered deterministic=false
  /// (excluded from journal snapshots, present in --metrics-out). Null
  /// disables; the counters are atomic, so pool workers may bump them.
  MetricsRegistry* metrics = nullptr;
};

class Simulator;

/// Reusable per-worker scratch arena for Simulator runs. All per-run state
/// (memory resolution, the execution plan, the report itself) lives here,
/// so a worker that evaluates thousands of candidates against one simulator
/// allocates only on its first run (or when switching simulators) and runs
/// allocation-free afterwards. A SimScratch may be reused across different
/// Simulator instances; it re-sizes itself on first use with each one. Not
/// thread-safe: use one arena per worker lane.
class SimScratch {
 public:
  SimScratch() = default;
  SimScratch(const SimScratch&) = delete;
  SimScratch& operator=(const SimScratch&) = delete;
  SimScratch(SimScratch&&) = default;
  SimScratch& operator=(SimScratch&&) = default;

 private:
  friend class Simulator;

  struct ResolvedArg {
    MemKind memory = MemKind::kSystem;
    bool demoted = false;
  };

  // --- Execution plan, built by Simulator::begin_runs: every mapping-
  // dependent quantity of the event loop (durations with resolved memory
  // access folded in, copy legs with precomputed elapsed times and flat
  // resource-clock ids), laid out as parallel flat arrays in topo_order_
  // visit order. The per-repeat pass then streams through these rows and
  // never touches the Mapping, the TaskGraph or the lookup tables again.

  /// One task row, in topo visit order.
  struct PlanTask {
    std::uint32_t task = 0;        // task index (report/finish slot)
    std::uint32_t edge_begin = 0;  // [edge_begin, edge_end) into plan_edges_
    std::uint32_t edge_end = 0;
    /// Pre-noise duration: runtime overhead + wave compute + resolved
    /// memory-access time, summed in the exact order the event loop
    /// historically used (bit-identical doubles).
    double base_dur = 0.0;
    double launch = 0.0;        // launch-overhead share of base_dur
    double energy_coeff = 0.0;  // energy per busy-second
    std::uint32_t pool = 0;     // leader-node pool clock (resource-clock id)
    std::uint8_t dist = 0;      // occupies every node (second pool clock)
    ProcKind proc = ProcKind::kCpu;
  };
  /// One incoming edge row; legs are contiguous in plan_legs_. An ordering
  /// (no-data) edge is simply an edge with zero legs.
  struct PlanEdge {
    std::uint32_t producer = 0;
    std::uint32_t leg_begin = 0;
    std::uint32_t leg_end = 0;
    std::uint8_t cross_iteration = 0;
  };
  /// One copy leg row: elapsed time and byte/energy charges precomputed,
  /// channel resolved to a flat resource-clock id.
  struct PlanLeg {
    double elapsed = 0.0;  // pre-noise channel time
    double bytes = 0.0;
    double energy = 0.0;  // per-byte copy energy charge
    std::uint64_t bytes_u64 = 0;
    /// Resource-clock id, or Simulator::kMissingChannel when the machine
    /// lacks the channel — raised lazily at execution time, because a leg
    /// on a cross-iteration edge may never execute.
    std::uint32_t resource = 0;
    std::uint8_t inter = 0;
    std::uint8_t src = 0;  // MemKind indices, for traces and errors
    std::uint8_t dst = 0;
  };

  /// Identity of the simulator the buffers are currently sized for.
  const Simulator* prepared_for_ = nullptr;

  // Memory-resolution state (valid between resolve and the runs using it).
  // Failures are recorded as an enum plus the offending ids; the message
  // string is built lazily by begin_runs so the resolve pass itself stays
  // allocation-free.
  enum class ResolveFailure : std::uint8_t { kNone, kOutOfMemory };
  bool resolve_ok_ = false;
  int demoted_args_ = 0;
  ResolveFailure failure_kind_ = ResolveFailure::kNone;
  std::uint32_t failure_task_ = 0;
  std::uint32_t failure_collection_ = 0;
  std::vector<ResolvedArg> resolved_;       // flat, Simulator::arg_off_
  std::vector<MemoryFootprint> footprints_;
  std::vector<std::uint64_t> used_;         // [node][mem kind]
  std::vector<std::uint8_t> instantiated_;  // [collection][kind][distributed]

  // The plan (see above), rebuilt by each begin_runs.
  std::vector<PlanTask> plan_tasks_;
  std::vector<PlanEdge> plan_edges_;
  std::vector<PlanLeg> plan_legs_;
  /// Precomputed trace strings per leg (record_trace only; empty otherwise).
  std::vector<std::string> leg_names_;
  std::vector<std::string> leg_resources_;
  /// mapping.hash() cached at begin_runs — every run's RNG seeding reuses it.
  std::uint64_t plan_hash_ = 0;

  // Event-loop state.
  std::vector<double> finish_prev_;
  std::vector<double> finish_cur_;

  ExecutionReport report_;
  /// One report per seed of the last run_repeats call.
  std::vector<ExecutionReport> repeat_reports_;
};

class Simulator {
 public:
  /// The graph and machine must outlive the simulator.
  Simulator(const MachineModel& machine, const TaskGraph& graph,
            SimOptions options = {});

  /// Simulates one run. `seed` individualizes the noise; runs with equal
  /// seeds and mappings are bit-identical. Convenience wrapper around
  /// begin_runs + an unbounded run_prepared (allocates a fresh arena per
  /// call).
  [[nodiscard]] ExecutionReport run(const Mapping& mapping,
                                    std::uint64_t seed) const;

  /// Prepares `scratch` for a *run sequence* over one mapping: validates
  /// the mapping, resolves memory placement and compiles the execution
  /// plan once — all noise-independent, so one pass serves every
  /// subsequent repeat. Returns false when the mapping is invalid or runs
  /// out of memory (no runs are possible then). On success, run_prepared()
  /// simulates individual runs against the cached plan.
  bool begin_runs(const Mapping& mapping, SimScratch& scratch) const;

  /// One run against the plan cached by the last successful begin_runs()
  /// on this scratch. Must be called with that same mapping; behavior is
  /// undefined otherwise. Returns a reference to the report held inside the
  /// arena, valid until the next run with it.
  ///
  /// `time_bound` bounds the simulated time: the event loop aborts as soon
  /// as any task provably finishes after it, returning a report with
  /// `censored = true` whose `total_seconds` holds the clock value that
  /// crossed the bound (a lower bound on the true makespan). The abort
  /// predicate is exact — a run is censored if and only if its unbounded
  /// makespan strictly exceeds the bound — so bounded and unbounded runs
  /// of the same (mapping, seed) agree on everything up to the abort point.
  const ExecutionReport& run_prepared(const Mapping& mapping,
                                      std::uint64_t seed, SimScratch& scratch,
                                      double time_bound) const;

  /// run_prepared once per seed, each into its own report. Requires a
  /// successful begin_runs(mapping, scratch); the returned span (one report
  /// per seed, in seed order) stays valid until the next run_repeats on the
  /// same arena.
  std::span<const ExecutionReport> run_repeats(
      const Mapping& mapping, std::span<const std::uint64_t> seeds,
      SimScratch& scratch,
      double time_bound = std::numeric_limits<double>::infinity()) const;

  [[nodiscard]] const MachineModel& machine() const { return machine_; }
  [[nodiscard]] const TaskGraph& graph() const { return graph_; }
  [[nodiscard]] const SimOptions& options() const { return options_; }

 private:
  /// One incoming dependence edge, flattened for the event loop: argument
  /// positions are pre-resolved to flat indices and every derived byte
  /// quantity (gather/scatter shares, blocked vs round-robin inter-node
  /// shares) is precomputed.
  struct EdgeIn {
    std::uint32_t producer = 0;      // task index
    std::uint32_t producer_arg = 0;  // flat collection-argument index
    std::uint32_t consumer_arg = 0;
    bool cross_iteration = false;
    bool carries_data = true;
    /// producer_collection != consumer_collection (halo/ghost flow that
    /// moves between instances even within one memory kind).
    bool cross_collection = false;
    double bytes = 0.0;
    double inter_bytes_blocked = 0.0;  // bytes * internode_fraction
    double inter_bytes_rr = 0.0;       // bytes * min(1, fraction * 1.6)
    double inter_bytes_gather = 0.0;   // bytes * (N-1)/N
    double bytes_over_nodes = 0.0;     // bytes / N
  };

  /// Flat per-(src kind, dst kind, inter-node) channel table.
  struct Chan {
    double bandwidth = 0.0;
    double latency = 0.0;
    bool present = false;
  };

  // Flat resource-clock id space: two pool clocks per processor kind
  // (leader node / other nodes), one clock per intra-node (src, dst)
  // channel, and the shared network serialization point.
  static constexpr std::uint32_t kPoolClockBase = 0;
  static constexpr std::uint32_t kChanClockBase =
      kPoolClockBase + kNumProcKinds * 2;
  static constexpr std::uint32_t kNetClock =
      kChanClockBase + kNumMemKinds * kNumMemKinds;
  static constexpr std::uint32_t kNumResClocks = kNetClock + 1;
  /// PlanLeg::resource sentinel: the machine lacks the leg's channel; the
  /// standard missing-channel error is raised if the leg ever executes.
  static constexpr std::uint32_t kMissingChannel = 0xffffffffu;

  /// Allocation pass: picks a concrete memory kind per argument from its
  /// priority list under per-instance capacity accounting. Fills the
  /// resolution state of `scratch`.
  void resolve_memories(const Mapping& mapping, SimScratch& scratch) const;

  /// Builds the scratch-held execution plan (SimScratch::PlanTask/PlanEdge/
  /// PlanLeg) for a resolved mapping: one row per task/edge/copy-leg in
  /// topo visit order, every duration and channel time precomputed with the
  /// exact operation order of the historical event loop (bit-identical
  /// doubles). Called by begin_runs after resolve_memories succeeds.
  void build_plan(const Mapping& mapping, SimScratch& scratch) const;

  /// The event loop proper: one simulated run against the plan held in
  /// `scratch`, written into `report`.
  void simulate(std::uint64_t seed, double time_bound, SimScratch& scratch,
                ExecutionReport& report) const;

  /// (Re)sizes the arena for this simulator and clears per-run state.
  void prepare(SimScratch& scratch) const;

  /// Bumps the run counters (no-op when metrics are disabled).
  void count_run(const ExecutionReport& report) const;

  [[nodiscard]] std::size_t dur_index(std::size_t task, std::size_t proc,
                                      std::size_t dist) const {
    return (task * kNumProcKinds + proc) * 2 + dist;
  }
  [[nodiscard]] std::size_t arg_sec_index(std::size_t flat_arg,
                                          std::size_t proc,
                                          std::size_t dist,
                                          std::size_t mem) const {
    return ((flat_arg * kNumProcKinds + proc) * 2 + dist) * kNumMemKinds +
           mem;
  }

  const MachineModel& machine_;
  const TaskGraph& graph_;
  SimOptions options_;

  // Mapping-independent invariants, all built once at construction: the
  // search evaluates thousands of mappings against the same graph, so
  // per-run recomputation would dominate.
  std::vector<TaskId> topo_order_;
  /// CSR adjacency over incoming edges (in-edge order matches the graph's
  /// global edge order per consumer, preserving RNG draw order).
  std::vector<std::uint32_t> in_off_;  // size num_tasks + 1
  std::vector<EdgeIn> in_edges_;
  /// CSR offsets of the flattened collection-argument space.
  std::vector<std::uint32_t> arg_off_;  // size num_tasks + 1
  std::size_t num_flat_args_ = 0;
  /// Per (task, proc kind, distributed): wave-execution compute time
  /// (launch overhead included) and the launch-overhead share, pre-noise.
  /// NaN for invalid combinations (missing variant / missing proc kind),
  /// which mapping validation rejects before the event loop runs.
  std::vector<double> dur_compute_;
  std::vector<double> dur_launch_;
  /// Per (task, proc kind, distributed): energy per busy-second
  /// (watts x busy instances x nodes used).
  std::vector<double> energy_coeff_;
  /// Per (flat arg, proc kind, distributed, resolved mem kind): pool-level
  /// memory access seconds, including affinity latency per wave and the
  /// NUMA cross-socket penalty. NaN for unaddressable combinations.
  std::vector<double> arg_sec_;
  Chan chan_[kNumMemKinds][kNumMemKinds][2];
  std::vector<MemKind> mem_kinds_;
  double runtime_overhead_ = 0.0;
  int num_nodes_ = 1;
  /// Expected trace length (tasks + a 2-leg bound per data edge, per
  /// iteration) to reserve up front when record_trace is on.
  std::size_t trace_reserve_ = 0;
  /// Run counters cached from options_.metrics at construction (null when
  /// metrics are disabled — the per-run cost is then a single untaken
  /// branch).
  Counter* runs_total_ = nullptr;
  Counter* runs_censored_ = nullptr;
  Counter* runs_failed_ = nullptr;
  Counter* events_total_ = nullptr;
};

}  // namespace automap
