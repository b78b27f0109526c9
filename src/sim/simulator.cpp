#include "src/sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/metrics.hpp"

namespace automap {

namespace {

/// ceil(a / b) for positive integers.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Index of the (first) argument of `task` that carries `collection`.
std::size_t arg_index_of(const GroupTask& task, CollectionId collection) {
  for (std::size_t i = 0; i < task.args.size(); ++i)
    if (task.args[i].collection == collection) return i;
  AM_UNREACHABLE("dependence edge references a collection the task lacks");
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Domain-separation salt for the fault RNG stream: fault draws must not
/// perturb the noise stream (a fault-free config makes zero fault draws and
/// reproduces pre-fault-layer results bit for bit), and an enabled model
/// must not correlate faults with noise.
constexpr std::uint64_t kFaultSalt = 0x8f6a3c1db94e527bULL;

/// Resets a scratch-held report to the state a fresh run expects. Vectors
/// are cleared, not deallocated, so steady-state runs reuse their capacity.
void clear_report(ExecutionReport& report, int iterations,
                  double time_bound) {
  report.ok = false;
  report.failure.clear();
  report.transient = false;
  report.faults = FaultCounts{};
  report.censored = false;
  report.time_bound = time_bound;
  report.total_seconds = 0.0;
  report.iterations = iterations;
  report.intra_node_copy_bytes = 0;
  report.inter_node_copy_bytes = 0;
  report.energy_joules = 0.0;
  report.events = 0;
  report.tasks.clear();
  report.footprints.clear();
  report.demoted_args = 0;
  report.trace.clear();
}

}  // namespace

Simulator::Simulator(const MachineModel& machine, const TaskGraph& graph,
                     SimOptions options)
    : machine_(machine), graph_(graph), options_(options) {
  AM_REQUIRE(options_.iterations > 0, "iterations must be positive");
  AM_REQUIRE(options_.noise_sigma >= 0.0, "noise sigma must be >= 0");
  const FaultModel& fm = options_.faults;
  AM_REQUIRE(fm.crash_prob >= 0.0 && fm.crash_prob <= 1.0,
             "crash probability must be in [0, 1]");
  AM_REQUIRE(fm.straggler_prob >= 0.0 && fm.straggler_prob <= 1.0,
             "straggler probability must be in [0, 1]");
  AM_REQUIRE(fm.straggler_factor >= 1.0, "straggler factor must be >= 1");
  AM_REQUIRE(fm.mem_pressure_prob >= 0.0 && fm.mem_pressure_prob <= 1.0,
             "memory-pressure probability must be in [0, 1]");
  AM_REQUIRE(
      fm.mem_pressure_headroom > 0.0 && fm.mem_pressure_headroom <= 1.0,
      "memory-pressure headroom must be in (0, 1]");
  AM_REQUIRE(fm.copy_fault_prob >= 0.0 && fm.copy_fault_prob <= 1.0,
             "copy-fault probability must be in [0, 1]");
  machine_.validate();
  graph_.validate();
  topo_order_ = graph_.topological_order();
  mem_kinds_ = machine_.mem_kinds();
  runtime_overhead_ = machine_.runtime_overhead();
  num_nodes_ = machine_.num_nodes();

  if (options_.metrics) {
    // Raw run counts include speculative pool work, so they are not
    // thread-count invariant: deterministic=false keeps them out of the
    // journal's metric snapshots (see MetricsRegistry).
    runs_total_ = options_.metrics->counter(
        "automap_sim_runs_total", "Simulated runs executed (any outcome)",
        /*deterministic=*/false);
    runs_censored_ = options_.metrics->counter(
        "automap_sim_runs_censored_total",
        "Simulated runs aborted at a time bound", /*deterministic=*/false);
    runs_failed_ = options_.metrics->counter(
        "automap_sim_runs_failed_total",
        "Simulated runs that failed (OOM or transient fault)",
        /*deterministic=*/false);
    events_total_ = options_.metrics->counter(
        "automap_sim_events_total",
        "Scheduling events processed (task executions + copy legs)",
        /*deterministic=*/false);
  }

  const std::size_t num_tasks = graph_.num_tasks();

  // Flattened collection-argument space: arg_off_[t] .. arg_off_[t+1].
  arg_off_.assign(num_tasks + 1, 0);
  for (std::size_t t = 0; t < num_tasks; ++t)
    arg_off_[t + 1] =
        arg_off_[t] +
        static_cast<std::uint32_t>(graph_.task(TaskId(t)).args.size());
  num_flat_args_ = arg_off_[num_tasks];

  // CSR incoming adjacency. A counting pass followed by an in-order fill
  // keeps each consumer's in-edge order equal to the global edge order,
  // which the RNG draw sequence (copy noise) depends on.
  in_off_.assign(num_tasks + 1, 0);
  for (const DependenceEdge& e : graph_.edges())
    ++in_off_[e.consumer.index() + 1];
  for (std::size_t t = 0; t < num_tasks; ++t) in_off_[t + 1] += in_off_[t];
  in_edges_.resize(graph_.num_edges());
  {
    std::vector<std::uint32_t> cursor(in_off_.begin(), in_off_.end() - 1);
    std::size_t num_data_edges = 0;
    for (const DependenceEdge& e : graph_.edges()) {
      EdgeIn in;
      in.producer = static_cast<std::uint32_t>(e.producer.index());
      in.producer_arg =
          arg_off_[e.producer.index()] +
          static_cast<std::uint32_t>(
              arg_index_of(graph_.task(e.producer), e.producer_collection));
      in.consumer_arg =
          arg_off_[e.consumer.index()] +
          static_cast<std::uint32_t>(
              arg_index_of(graph_.task(e.consumer), e.consumer_collection));
      in.cross_iteration = e.cross_iteration;
      in.carries_data = e.carries_data;
      in.cross_collection = e.producer_collection != e.consumer_collection;
      const double bytes = static_cast<double>(e.bytes);
      in.bytes = bytes;
      in.inter_bytes_blocked = bytes * e.internode_fraction;
      in.inter_bytes_rr = bytes * std::min(1.0, e.internode_fraction * 1.6);
      in.inter_bytes_gather = bytes * static_cast<double>(num_nodes_ - 1) /
                              static_cast<double>(num_nodes_);
      in.bytes_over_nodes = bytes / static_cast<double>(num_nodes_);
      in_edges_[cursor[e.consumer.index()]++] = in;
      if (e.carries_data) ++num_data_edges;
    }
    // Trace upper bound: one task event plus at most two copy legs per
    // data-carrying edge, each iteration.
    trace_reserve_ = static_cast<std::size_t>(options_.iterations) *
                     (num_tasks + 2 * num_data_edges);
  }

  // Per-(task, proc kind, distributed) duration invariants. Combinations a
  // valid mapping can never reach (missing proc kind / missing variant) get
  // NaN; Mapping::violations rejects them before any run consumes these.
  dur_compute_.assign(num_tasks * kNumProcKinds * 2, kNaN);
  dur_launch_.assign(num_tasks * kNumProcKinds * 2, kNaN);
  energy_coeff_.assign(num_tasks * kNumProcKinds * 2, kNaN);
  arg_sec_.assign(num_flat_args_ * kNumProcKinds * 2 * kNumMemKinds, kNaN);

  for (std::size_t t = 0; t < num_tasks; ++t) {
    const GroupTask& task = graph_.task(TaskId(t));
    for (const ProcKind proc : kAllProcKinds) {
      if (!machine_.has_proc_kind(proc)) continue;
      const ProcGroup& pg = machine_.proc_group(proc);
      const double per_point = proc == ProcKind::kGpu
                                   ? task.cost.gpu_seconds_per_point
                                   : task.cost.cpu_seconds_per_point;
      if (per_point < 0.0) continue;  // missing variant
      const double compute_per_point = per_point / pg.speed;

      for (int dist = 0; dist < 2; ++dist) {
        const int nodes_used = dist != 0 ? num_nodes_ : 1;
        const std::int64_t points_per_node =
            ceil_div(task.num_points, nodes_used);
        const std::int64_t waves =
            ceil_div(points_per_node, pg.count_per_node);

        // Launch overhead and compute serialize in waves over the pool.
        const double launch_time =
            static_cast<double>(waves) * pg.launch_overhead_s;
        const double compute_time =
            launch_time + static_cast<double>(waves) * compute_per_point;

        const std::size_t di =
            dur_index(t, index_of(proc), static_cast<std::size_t>(dist));
        // Base duration: the mapping-independent per-launch runtime cost
        // (dependence analysis, mapper queries, instance binding) plus
        // wave compute. Memory-access time is added per resolved argument
        // at run time from arg_sec_.
        dur_compute_[di] = runtime_overhead_ + compute_time;
        dur_launch_[di] = launch_time;

        const double busy_instances = static_cast<double>(
            std::min<std::int64_t>(points_per_node, pg.count_per_node));
        energy_coeff_[di] = pg.watts_busy * busy_instances * nodes_used;

        // Memory access is pool-level: all points on a node stream their
        // bytes through the shared affinity bandwidth (per-allocation for
        // FrameBuffer, engaging as many GPUs as the group occupies).
        for (std::size_t a = 0; a < task.args.size(); ++a) {
          const CollectionUse& use = task.args[a];
          const double node_bytes =
              static_cast<double>(graph_.collection_bytes(use.collection)) *
              use.access_fraction / static_cast<double>(nodes_used);
          for (const MemKind mem : kAllMemKinds) {
            if (!machine_.addressable(proc, mem)) continue;
            const Affinity aff = machine_.affinity(proc, mem);

            // Allocations engaged in parallel: GPUs for FrameBuffer, one
            // shared aggregate otherwise (System's two sockets are already
            // folded into the affinity figure).
            double engaged = 1.0;
            if (mem == MemKind::kFrameBuffer) {
              engaged = static_cast<double>(std::min<std::int64_t>(
                  std::min(pg.count_per_node,
                           machine_.mems_per_node(MemKind::kFrameBuffer)),
                  points_per_node));
            }
            const double bw = aff.bandwidth_bytes_per_s * engaged;

            double seconds = aff.latency_s * static_cast<double>(waves);
            if (proc == ProcKind::kCpu && mem == MemKind::kSystem &&
                machine_.mems_per_node(MemKind::kSystem) > 1) {
              // NUMA: with per-socket System allocations, roughly half of
              // a CPU pool's accesses cross to the far socket's allocation
              // through the cross-socket link (Legion keeps one instance
              // per socket and transfers between them). Zero-Copy is a
              // single allocation visible to all processors and avoids
              // this — the effect the paper calls out for Stencil (§5).
              const double cross_bw =
                  std::min(bw, 2.0 * machine_.cross_socket_channel()
                                         .bandwidth_bytes_per_s);
              seconds += 0.5 * node_bytes / bw + 0.5 * node_bytes / cross_bw;
            } else {
              seconds += node_bytes / bw;
            }
            arg_sec_[arg_sec_index(arg_off_[t] + a, index_of(proc),
                                   static_cast<std::size_t>(dist),
                                   index_of(mem))] = seconds;
          }
        }
      }
    }
  }

  // Flat channel table. Absent channels keep present = false; the event
  // loop falls back to machine_.channel() there, which raises the standard
  // missing-channel error.
  for (const MemKind src : kAllMemKinds) {
    for (const MemKind dst : kAllMemKinds) {
      for (int inter = 0; inter < 2; ++inter) {
        if (!machine_.has_mem_kind(src) || !machine_.has_mem_kind(dst))
          continue;
        if (!machine_.has_channel(src, dst, inter != 0)) continue;
        const Channel ch = machine_.channel(src, dst, inter != 0);
        chan_[index_of(src)][index_of(dst)][inter] = {
            .bandwidth = ch.bandwidth_bytes_per_s,
            .latency = ch.latency_s,
            .present = true};
      }
    }
  }
}

void Simulator::prepare(SimScratch& scratch) const {
  if (scratch.prepared_for_ == this) return;
  scratch.prepared_for_ = this;
  scratch.resolved_.resize(num_flat_args_);
  scratch.footprints_.reserve(kNumMemKinds);
  scratch.used_.resize(static_cast<std::size_t>(num_nodes_) * kNumMemKinds);
  scratch.instantiated_.resize(graph_.num_collections() * kNumMemKinds * 2);
  scratch.finish_prev_.resize(graph_.num_tasks());
  scratch.finish_cur_.resize(graph_.num_tasks());
  scratch.report_.tasks.reserve(graph_.num_tasks());
  scratch.resolve_ok_ = false;
}

void Simulator::resolve_memories(const Mapping& mapping,
                                 SimScratch& scratch) const {
  scratch.resolve_ok_ = false;
  scratch.demoted_args_ = 0;
  scratch.failure_kind_ = SimScratch::ResolveFailure::kNone;
  scratch.footprints_.clear();

  // Per (node, mem kind): bytes committed to the *fullest single instance*
  // of that kind. We charge each collection instance divided over the
  // allocations that hold it (sockets for System, GPUs for FrameBuffer).
  std::fill(scratch.used_.begin(), scratch.used_.end(), 0);
  // A collection instantiated once per (collection, kind, distributed) is
  // shared by all tasks that agree on those coordinates.
  std::fill(scratch.instantiated_.begin(), scratch.instantiated_.end(), 0);

  for (const GroupTask& task : graph_.tasks()) {
    const TaskMapping& tm = mapping.at(task.id);
    AM_REQUIRE(tm.arg_memories.size() == task.args.size(),
               "mapping shape mismatch for task " + task.name);
    SimScratch::ResolvedArg* resolved =
        scratch.resolved_.data() + arg_off_[task.id.index()];

    const bool distributed = tm.distribute && num_nodes_ > 1;
    const int nodes_used = distributed ? num_nodes_ : 1;
    const std::int64_t points_per_node =
        ceil_div(task.num_points, nodes_used);

    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const CollectionId cid = task.args[a].collection;
      const std::uint64_t total_bytes = graph_.collection_bytes(cid);
      const std::uint64_t node_share =
          total_bytes / static_cast<std::uint64_t>(nodes_used);

      bool placed = false;
      for (std::size_t pri = 0; pri < tm.arg_memories[a].size(); ++pri) {
        const MemKind kind = tm.arg_memories[a][pri];
        if (!machine_.addressable(tm.proc, kind)) continue;

        std::uint8_t& known =
            scratch.instantiated_[(cid.value() * kNumMemKinds +
                                   index_of(kind)) *
                                      2 +
                                  (distributed ? 1 : 0)];
        if (known != 0) {
          // Already resident in this kind with the same layout; reuse it.
          resolved[a] = {.memory = kind, .demoted = pri > 0};
          if (pri > 0) ++scratch.demoted_args_;
          placed = true;
          break;
        }

        // Bytes charged to the fullest allocation of this kind on a node:
        // a distributed collection interleaves across the kind's per-node
        // allocations it can use.
        const int allocs = machine_.mems_per_node(kind);
        const int spread = static_cast<int>(std::max<std::int64_t>(
            1, std::min<std::int64_t>(allocs, points_per_node)));
        const std::uint64_t instance_share =
            node_share / static_cast<std::uint64_t>(spread);
        const std::uint64_t capacity = machine_.mem_capacity(kind);

        bool fits = true;
        for (int n = 0; n < nodes_used; ++n) {
          if (scratch.used_[static_cast<std::size_t>(n) * kNumMemKinds +
                            index_of(kind)] +
                  instance_share >
              capacity) {
            fits = false;
            break;
          }
        }
        if (!fits) continue;

        for (int n = 0; n < nodes_used; ++n)
          scratch.used_[static_cast<std::size_t>(n) * kNumMemKinds +
                        index_of(kind)] += instance_share;
        known = 1;
        resolved[a] = {.memory = kind, .demoted = pri > 0};
        if (pri > 0) ++scratch.demoted_args_;
        placed = true;
        break;
      }

      if (!placed) {
        // Record only the offending ids: the message is built lazily by
        // begin_runs, so the resolve pass — probed on every candidate —
        // stays allocation-free.
        scratch.failure_kind_ = SimScratch::ResolveFailure::kOutOfMemory;
        scratch.failure_task_ = static_cast<std::uint32_t>(task.id.index());
        scratch.failure_collection_ = static_cast<std::uint32_t>(cid.value());
        return;
      }
    }
  }

  for (const MemKind kind : mem_kinds_) {
    std::uint64_t peak = 0;
    for (int n = 0; n < num_nodes_; ++n)
      peak = std::max(
          peak, scratch.used_[static_cast<std::size_t>(n) * kNumMemKinds +
                              index_of(kind)]);
    scratch.footprints_.push_back(
        {.kind = kind,
         .peak_instance_bytes = peak,
         .capacity_bytes = machine_.mem_capacity(kind)});
  }
  scratch.resolve_ok_ = true;
}

void Simulator::build_plan(const Mapping& mapping,
                           SimScratch& scratch) const {
  // Every mapping-dependent quantity of the event loop, flattened into
  // parallel arrays in topo visit order. All derived doubles are computed
  // with the exact expressions (and operand order) the historical per-run
  // loop used, so a plan-driven run is bit-identical to the original.
  scratch.plan_hash_ = mapping.hash();
  scratch.plan_tasks_.clear();
  scratch.plan_edges_.clear();
  scratch.plan_legs_.clear();
  scratch.leg_names_.clear();
  scratch.leg_resources_.clear();
  scratch.plan_tasks_.reserve(graph_.num_tasks());
  scratch.plan_edges_.reserve(in_edges_.size());
  const bool multi = num_nodes_ > 1;

  for (const TaskId tid : topo_order_) {
    const std::size_t ti = tid.index();
    const TaskMapping& tm = mapping.at(tid);
    const bool c_dist = tm.distribute && multi;

    SimScratch::PlanTask pt;
    pt.task = static_cast<std::uint32_t>(ti);
    pt.edge_begin = static_cast<std::uint32_t>(scratch.plan_edges_.size());

    for (std::uint32_t ei = in_off_[ti]; ei < in_off_[ti + 1]; ++ei) {
      const EdgeIn& e = in_edges_[ei];
      SimScratch::PlanEdge pe;
      pe.producer = e.producer;
      pe.cross_iteration = e.cross_iteration ? 1 : 0;
      pe.leg_begin = static_cast<std::uint32_t>(scratch.plan_legs_.size());

      if (e.carries_data) {
        const TaskMapping& ptm = mapping.at(TaskId(e.producer));
        const MemKind src = scratch.resolved_[e.producer_arg].memory;
        const MemKind dst = scratch.resolved_[e.consumer_arg].memory;
        const bool p_dist = ptm.distribute && multi;
        // Cross-collection (halo/ghost) flow moves between *instances* even
        // when both live in the same memory kind — per-socket System
        // allocations and per-GPU Frame-Buffers require a staging copy.
        // Zero-Copy is a single node-wide allocation, so it alone is
        // exempt: this is the System-vs-ZeroCopy distinction the paper
        // calls out for Stencil (§5).
        const bool intra_copy_needed =
            src != dst || (e.cross_collection && src != MemKind::kZeroCopy);

        // Copy legs: (bytes to move, effective per-node parallelism,
        // inter-node?). Legs queue on their channel in sequence.
        struct Leg {
          double bytes = 0.0;
          double parallelism = 1.0;
          bool inter = false;
        };
        std::array<Leg, 2> legs;
        int num_legs = 0;
        if (p_dist && c_dist) {
          // Round-robin point placement scatters neighboring points across
          // nodes, inflating the boundary traffic a blocked decomposition
          // would keep local (the custom-mapper advantage on Circuit, §5).
          const double inter_bytes = (ptm.blocked && tm.blocked)
                                         ? e.inter_bytes_blocked
                                         : e.inter_bytes_rr;
          if (inter_bytes > 0.0)
            legs[static_cast<std::size_t>(num_legs++)] = {
                inter_bytes, static_cast<double>(num_nodes_), true};
          if (intra_copy_needed) {
            const double intra = e.bytes - inter_bytes;
            if (intra > 0.0)
              legs[static_cast<std::size_t>(num_legs++)] = {
                  intra, static_cast<double>(num_nodes_), false};
          }
        } else if (p_dist != c_dist) {
          // Gather to / scatter from the leader node: (N-1)/N of the data
          // crosses the network serially into one endpoint.
          if (e.inter_bytes_gather > 0.0)
            legs[static_cast<std::size_t>(num_legs++)] = {
                e.inter_bytes_gather, 1.0, true};
          if (intra_copy_needed)
            legs[static_cast<std::size_t>(num_legs++)] = {e.bytes_over_nodes,
                                                          1.0, false};
        } else {
          // Both on the leader node (or a single-node machine).
          if (intra_copy_needed)
            legs[static_cast<std::size_t>(num_legs++)] = {e.bytes, 1.0,
                                                          false};
        }

        for (int li = 0; li < num_legs; ++li) {
          const Leg& leg = legs[static_cast<std::size_t>(li)];
          const std::size_t si = index_of(src);
          const std::size_t di = index_of(dst);
          const Chan& ch = chan_[si][di][leg.inter ? 1 : 0];
          SimScratch::PlanLeg pl;
          pl.bytes = leg.bytes;
          pl.bytes_u64 = static_cast<std::uint64_t>(leg.bytes);
          pl.inter = leg.inter ? 1 : 0;
          pl.src = static_cast<std::uint8_t>(si);
          pl.dst = static_cast<std::uint8_t>(di);
          pl.energy = leg.inter ? leg.bytes * 0.5e-9   // NIC + switches
                                : leg.bytes * 20e-12;  // DMA engines
          if (ch.present) {
            pl.resource =
                leg.inter ? kNetClock
                          : kChanClockBase +
                                static_cast<std::uint32_t>(
                                    si * kNumMemKinds + di);
            pl.elapsed =
                ch.latency + leg.bytes / leg.parallelism / ch.bandwidth;
          } else {
            // Raised at execution time: a leg on a cross-iteration edge of
            // a 1-iteration run never executes and must not throw here.
            pl.resource = kMissingChannel;
          }
          scratch.plan_legs_.push_back(pl);
          if (options_.record_trace) {
            scratch.leg_names_.push_back(
                std::string(to_string(src)) + "->" +
                std::string(to_string(dst)) + " for " + graph_.task(tid).name);
            scratch.leg_resources_.push_back(
                leg.inter ? "network"
                          : "channel " + std::string(to_string(src)) + "-" +
                                std::string(to_string(dst)));
          }
        }
      }
      pe.leg_end = static_cast<std::uint32_t>(scratch.plan_legs_.size());
      scratch.plan_edges_.push_back(pe);
    }
    pt.edge_end = static_cast<std::uint32_t>(scratch.plan_edges_.size());

    const std::size_t pk = index_of(tm.proc);
    const std::size_t dist = c_dist ? 1 : 0;
    const std::size_t di = dur_index(ti, pk, dist);
    double mem_time = 0.0;
    for (std::uint32_t a = arg_off_[ti]; a < arg_off_[ti + 1]; ++a) {
      mem_time += arg_sec_[arg_sec_index(
          a, pk, dist, index_of(scratch.resolved_[a].memory))];
    }
    pt.base_dur = dur_compute_[di] + mem_time;
    pt.launch = dur_launch_[di];
    pt.energy_coeff = energy_coeff_[di];
    pt.pool = kPoolClockBase + static_cast<std::uint32_t>(pk * 2);
    pt.dist = c_dist ? 1 : 0;
    pt.proc = tm.proc;
    scratch.plan_tasks_.push_back(pt);
  }
}

void Simulator::simulate(std::uint64_t seed, double time_bound,
                         SimScratch& scratch, ExecutionReport& report) const {
  // Everything mapping-dependent was flattened into the plan by
  // begin_runs; the loop below never touches the Mapping again.
  clear_report(report, options_.iterations, time_bound);
  report.footprints = scratch.footprints_;
  report.demoted_args = scratch.demoted_args_;

  const std::size_t num_tasks = graph_.num_tasks();
  report.tasks.resize(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i)
    report.tasks[i] = TaskReport{.task = TaskId(i)};
  if (options_.record_trace) report.trace.reserve(trace_reserve_);

  Rng rng(mix64(seed) ^ scratch.plan_hash_);

  // Fault injection draws come from a *separate* derived stream: the noise
  // sequence above is untouched whether faults are on or off, and a
  // disabled model makes no draws at all, so fault-free configs reproduce
  // the pre-fault-layer results bit for bit at any thread count.
  const FaultModel& faults = options_.faults;
  const bool inject = faults.enabled();
  Rng fault_rng(inject ? (mix64(seed ^ kFaultSalt) ^ scratch.plan_hash_) : 0);

  // Transient memory pressure: for this run every allocation's usable
  // capacity shrinks to the headroom share of nominal (co-tenant runtime
  // services, fragmentation). The placement itself is cached and
  // deterministic, so the check reduces to comparing the mapping's peak
  // footprints against the reduced capacities.
  if (inject && faults.mem_pressure_prob > 0.0 &&
      fault_rng.bernoulli(faults.mem_pressure_prob)) {
    ++report.faults.mem_pressure;
    for (const MemoryFootprint& fp : scratch.footprints_) {
      const double usable = faults.mem_pressure_headroom *
                            static_cast<double>(fp.capacity_bytes);
      if (static_cast<double>(fp.peak_instance_bytes) > usable) {
        std::ostringstream os;
        os << "transient memory pressure: " << to_string(fp.kind) << " peak "
           << format_bytes(fp.peak_instance_bytes) << " exceeds reduced "
           << "capacity " << format_bytes(static_cast<std::uint64_t>(usable));
        report.failure = os.str();
        report.transient = true;
        return;
      }
    }
  }

  // Resource state, carried across iterations: one busy-until clock per
  // serialized resource (pool leader/others per proc kind, intra-node
  // channel per (src, dst), and the shared network serialization point —
  // the machine has one NIC, so System->System and FB->FB network
  // transfers contend even though their bandwidths differ per kind pair).
  // Activities commit in dependency order, so one scalar per resource
  // suffices and the censored-abort predicate stays exact.
  std::array<double, kNumResClocks> clocks{};

  // Never read before written within a run (topological order guarantees
  // producers precede consumers; cross-iteration edges skip iteration 0),
  // so no per-run clearing is needed.
  std::vector<double>& finish_prev = scratch.finish_prev_;
  std::vector<double>& finish_cur = scratch.finish_cur_;

  const double copy_noise_sigma = options_.noise_sigma * 0.5;
  const bool record_trace = options_.record_trace;
  double makespan = 0.0;
  // Run totals accumulated in locals (registers) and flushed into the
  // report at every exit; the addition order matches the historical
  // in-place accumulation, so the flushed doubles are bit-identical.
  double energy = 0.0;
  std::uint64_t intra_bytes = 0;
  std::uint64_t inter_bytes = 0;
  std::uint64_t events = 0;

  const SimScratch::PlanTask* const tasks = scratch.plan_tasks_.data();
  const SimScratch::PlanEdge* const edges = scratch.plan_edges_.data();
  const SimScratch::PlanLeg* const legs = scratch.plan_legs_.data();
  const std::size_t num_rows = scratch.plan_tasks_.size();

  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (std::size_t row = 0; row < num_rows; ++row) {
      const SimScratch::PlanTask& pt = tasks[row];

      // 1. Data arrival: producers' finish plus any inferred copies.
      double ready = 0.0;
      for (std::uint32_t ei = pt.edge_begin; ei < pt.edge_end; ++ei) {
        const SimScratch::PlanEdge& e = edges[ei];
        double produced_at;
        if (e.cross_iteration != 0) {
          if (iter == 0) continue;  // initial data is in place
          produced_at = finish_prev[e.producer];
        } else {
          produced_at = finish_cur[e.producer];
        }

        double arrival = produced_at;
        for (std::uint32_t li = e.leg_begin; li < e.leg_end; ++li) {
          const SimScratch::PlanLeg& leg = legs[li];
          if (leg.resource == kMissingChannel) {
            // Raises the standard missing-channel error.
            (void)machine_.channel(static_cast<MemKind>(leg.src),
                                   static_cast<MemKind>(leg.dst),
                                   leg.inter != 0);
          }
          double elapsed = leg.elapsed;
          if (copy_noise_sigma > 0.0)
            elapsed *= rng.lognormal_factor(copy_noise_sigma);
          // Channel fault: the first attempt is lost at completion and the
          // copy re-issues back to back, doubling the leg's channel time.
          bool copy_faulted = false;
          if (inject && faults.copy_fault_prob > 0.0 &&
              fault_rng.bernoulli(faults.copy_fault_prob)) {
            copy_faulted = true;
            ++report.faults.copy_retries;
            report.faults.lost_seconds += elapsed;
            elapsed *= 2.0;
          }
          double& busy = clocks[leg.resource];
          const double start = std::max(arrival, busy);
          busy = start + elapsed;
          arrival = start + elapsed;
          ++events;
          if (record_trace) {
            report.trace.push_back({.kind = TraceEvent::Kind::kCopy,
                                    .name = scratch.leg_names_[li],
                                    .resource = scratch.leg_resources_[li],
                                    .iteration = iter,
                                    .start_s = start,
                                    .duration_s = elapsed,
                                    .bytes = leg.bytes_u64});
            if (copy_faulted) {
              // Annotate the lost first attempt so the profile can
              // attribute the re-issue time to faults.
              report.trace.push_back(
                  {.kind = TraceEvent::Kind::kFault,
                   .name = "copy fault: " + scratch.leg_names_[li],
                   .resource = scratch.leg_resources_[li],
                   .iteration = iter,
                   .start_s = start,
                   .duration_s = elapsed * 0.5});
            }
          }
          if (leg.inter != 0) {
            inter_bytes += leg.bytes_u64;
          } else {
            intra_bytes += leg.bytes_u64;
          }
          energy += leg.energy;
        }
        ready = std::max(ready, arrival);
      }

      // 2. Processor pool availability on every node the task occupies.
      const double lead = clocks[pt.pool];
      const double pool_free =
          pt.dist != 0 ? std::max(lead, clocks[pt.pool + 1]) : lead;

      const double start = std::max(ready, pool_free);
      double duration = pt.base_dur;
      if (options_.noise_sigma > 0.0)
        duration *= rng.lognormal_factor(options_.noise_sigma);
      ++events;

      if (inject) {
        // Straggler: the task's wave runs on a slow/contended instance and
        // its duration inflates; the run continues.
        if (faults.straggler_prob > 0.0 &&
            fault_rng.bernoulli(faults.straggler_prob)) {
          const double inflation = duration * (faults.straggler_factor - 1.0);
          duration += inflation;
          ++report.faults.stragglers;
          report.faults.lost_seconds += inflation;
          if (record_trace) {
            report.trace.push_back(
                {.kind = TraceEvent::Kind::kFault,
                 .name = "straggler: " + graph_.task(TaskId(pt.task)).name,
                 .resource = std::string(to_string(pt.proc)) + " pool",
                 .iteration = iter,
                 .start_s = start,
                 .duration_s = inflation});
          }
        }
        // Transient crash at a uniformly sampled point of the task's
        // execution: the run aborts there. The partial work up to the crash
        // is what a retrying driver pays for (total_seconds).
        if (faults.crash_prob > 0.0 &&
            fault_rng.bernoulli(faults.crash_prob)) {
          const double lost = fault_rng.uniform() * duration;
          ++report.faults.crashes;
          report.faults.lost_seconds += lost;
          if (record_trace) {
            report.trace.push_back(
                {.kind = TraceEvent::Kind::kFault,
                 .name = "crash: " + graph_.task(TaskId(pt.task)).name,
                 .resource = std::string(to_string(pt.proc)) + " pool",
                 .iteration = iter,
                 .start_s = start,
                 .duration_s = lost});
          }
          report.transient = true;
          report.failure = "transient crash in task " +
                           graph_.task(TaskId(pt.task)).name +
                           " (iteration " + std::to_string(iter) + ")";
          report.total_seconds = std::max(makespan, start + lost);
          report.energy_joules = energy;
          report.intra_node_copy_bytes = intra_bytes;
          report.inter_node_copy_bytes = inter_bytes;
          report.events = events;
          return;
        }
      }

      const double finish = start + duration;

      clocks[pt.pool] = finish;
      if (pt.dist != 0) clocks[pt.pool + 1] = finish;
      finish_cur[pt.task] = finish;
      makespan = std::max(makespan, finish);

      // Incumbent-bounded abort: the makespan is the maximum task finish,
      // so the first finish past the bound proves the full run exceeds it.
      // Report the crossing clock value as a censored lower bound; the
      // remaining report fields stay partial and must not be consumed.
      if (finish > time_bound) {
        report.ok = true;
        report.censored = true;
        report.total_seconds = finish;
        report.energy_joules = energy;
        report.intra_node_copy_bytes = intra_bytes;
        report.inter_node_copy_bytes = inter_bytes;
        report.events = events;
        return;
      }

      // Energy: busy instances x busy time (per-instance power), across
      // the nodes the group occupies.
      energy += duration * pt.energy_coeff;
      if (record_trace) {
        report.trace.push_back(
            {.kind = TraceEvent::Kind::kTask,
             .name = graph_.task(TaskId(pt.task)).name,
             .resource = std::string(to_string(pt.proc)) + " pool",
             .iteration = iter,
             .start_s = start,
             .duration_s = duration});
      }

      TaskReport& tr = report.tasks[pt.task];
      tr.proc = pt.proc;
      tr.compute_seconds += duration;
      tr.copy_wait_seconds += std::max(0.0, ready - pool_free);
      tr.launch_overhead_seconds += pt.launch;
      tr.runtime_overhead_seconds += runtime_overhead_;
    }
    std::swap(finish_prev, finish_cur);
  }

  // Per-iteration averages for the task reports.
  for (auto& tr : report.tasks) {
    tr.compute_seconds /= options_.iterations;
    tr.copy_wait_seconds /= options_.iterations;
    tr.launch_overhead_seconds /= options_.iterations;
    tr.runtime_overhead_seconds /= options_.iterations;
  }
  report.intra_node_copy_bytes =
      intra_bytes / static_cast<std::uint64_t>(options_.iterations);
  report.inter_node_copy_bytes =
      inter_bytes / static_cast<std::uint64_t>(options_.iterations);
  report.energy_joules = energy;
  report.events = events;

  report.ok = true;
  report.total_seconds = makespan;
}

bool Simulator::begin_runs(const Mapping& mapping,
                           SimScratch& scratch) const {
  prepare(scratch);

  {
    const auto violations = mapping.violations(graph_, machine_);
    if (!violations.empty()) {
      clear_report(scratch.report_, options_.iterations, kInf);
      scratch.report_.failure = "invalid mapping: " + violations.front();
      return false;
    }
  }

  resolve_memories(mapping, scratch);
  if (!scratch.resolve_ok_) {
    clear_report(scratch.report_, options_.iterations, kInf);
    // The resolve pass records only ids; the human-readable message is
    // built here, on the (cold) failure path.
    if (scratch.failure_kind_ == SimScratch::ResolveFailure::kOutOfMemory) {
      const CollectionId cid(scratch.failure_collection_);
      std::ostringstream os;
      os << "out of memory: no memory kind in the priority list of task "
         << graph_.task(TaskId(scratch.failure_task_)).name << " argument "
         << graph_.collection(cid).name << " ("
         << format_bytes(graph_.collection_bytes(cid))
         << ") has capacity left";
      scratch.report_.failure = os.str();
    }
    return false;
  }
  build_plan(mapping, scratch);
  return true;
}

void Simulator::count_run(const ExecutionReport& report) const {
  if (events_total_) events_total_->inc(report.events);
  if (!runs_total_) return;
  runs_total_->inc();
  if (report.censored) {
    runs_censored_->inc();
  } else if (!report.ok) {
    runs_failed_->inc();
  }
}

const ExecutionReport& Simulator::run_prepared(const Mapping& mapping,
                                               std::uint64_t seed,
                                               SimScratch& scratch,
                                               double time_bound) const {
  // The plan from begin_runs carries every mapping-dependent quantity.
  (void)mapping;
  simulate(seed, time_bound, scratch, scratch.report_);
  count_run(scratch.report_);
  return scratch.report_;
}

std::span<const ExecutionReport> Simulator::run_repeats(
    const Mapping& mapping, std::span<const std::uint64_t> seeds,
    SimScratch& scratch, double time_bound) const {
  (void)mapping;
  scratch.repeat_reports_.resize(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    simulate(seeds[r], time_bound, scratch, scratch.repeat_reports_[r]);
    count_run(scratch.repeat_reports_[r]);
  }
  return scratch.repeat_reports_;
}

ExecutionReport Simulator::run(const Mapping& mapping,
                               std::uint64_t seed) const {
  SimScratch scratch;
  if (begin_runs(mapping, scratch))
    run_prepared(mapping, seed, scratch, kInf);
  return std::move(scratch.report_);
}

}  // namespace automap
