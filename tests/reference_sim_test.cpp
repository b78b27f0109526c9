// Differential test of the simulator against an independent reference.
//
// ReferenceSim below is written from docs/cost_model.md alone and is
// deliberately naive: it walks the TaskGraph and the Mapping directly on
// every run, keys resource clocks by name in a std::map, and shares no
// plan, table or scratch arena with src/sim. It draws noise and faults
// through the same Rng calls, seeds and order as the cost model specifies,
// so its runs are the Simulator's runs computed a second way.
//
// Over random graphs (tests/random_graph.hpp) x random valid mappings x
// seeds, at sigma 0, at sigma 0.05 and with each fault kind alone:
//   * the verdict (complete, out of memory, transient), the event count
//     and the per-iteration intra/inter-node copy bytes are exactly equal;
//   * makespan (or the clock at a crash), energy and each task's busy time
//     agree within kRelTol: the reference adds terms in the order the doc
//     writes them, not the Simulator's, so the last bits may differ;
//   * a run_prepared bounded by nextafter(makespan, 0) is censored, with
//     the makespan as its crossing clock; one bounded by the makespan is
//     not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"
#include "tests/random_graph.hpp"

namespace automap {
namespace {

/// Relative tolerance of every floating-point comparison (docs/cost_model.md,
/// "Reference simulator").
constexpr double kRelTol = 1e-12;

/// Salt of the fault stream's seed (docs/cost_model.md, "Determinism").
constexpr std::uint64_t kFaultSalt = 0x8f6a3c1db94e527bULL;

struct RefRun {
  bool ok = false;
  bool oom = false;
  bool transient = false;
  double total_seconds = 0.0;
  double energy_joules = 0.0;
  std::uint64_t events = 0;
  std::uint64_t intra_bytes = 0;  // per iteration
  std::uint64_t inter_bytes = 0;
  std::vector<double> busy;  // per task, per iteration
};

/// One copy leg of a data edge: bytes moved, parallelism, inter-node?
struct RefLeg {
  double bytes;
  double parallelism;
  bool inter;
};

class ReferenceSim {
 public:
  ReferenceSim(const MachineModel& machine, const TaskGraph& graph,
               const SimOptions& options)
      : machine_(machine), graph_(graph), options_(options) {}

  RefRun run(const Mapping& mapping, std::uint64_t seed) const {
    RefRun out;
    if (!place(mapping)) {
      out.oom = true;
      return out;
    }
    const FaultModel& fm = options_.faults;
    Rng noise(mix64(seed) ^ mapping.hash());
    Rng faults(mix64(seed ^ kFaultSalt) ^ mapping.hash());

    if (fm.mem_pressure_prob > 0.0 && faults.bernoulli(fm.mem_pressure_prob)) {
      for (const MemKind kind : machine_.mem_kinds()) {
        std::uint64_t peak = 0;
        for (int n = 0; n < machine_.num_nodes(); ++n)
          peak = std::max(peak, used_[{n, kind}]);
        if (static_cast<double>(peak) >
            fm.mem_pressure_headroom *
                static_cast<double>(machine_.mem_capacity(kind))) {
          out.transient = true;
          return out;
        }
      }
    }

    const int iters = options_.iterations;
    std::map<std::string, double> busy_until;
    std::vector<double> finish(graph_.num_tasks(), 0.0);
    std::vector<double> prev_finish(graph_.num_tasks(), 0.0);
    out.busy.assign(graph_.num_tasks(), 0.0);
    std::uint64_t intra = 0;
    std::uint64_t inter = 0;
    double makespan = 0.0;
    for (int iter = 0; iter < iters; ++iter) {
      for (const TaskId t : graph_.topological_order()) {
        const TaskMapping& tm = mapping.at(t);
        double ready = 0.0;
        for (const DependenceEdge& e : graph_.edges()) {
          if (e.consumer != t) continue;
          if (e.cross_iteration && iter == 0) continue;
          double arrival = e.cross_iteration ? prev_finish[e.producer.index()]
                                             : finish[e.producer.index()];
          const MemKind src = memory_of(e.producer, e.producer_collection);
          const MemKind dst = memory_of(e.consumer, e.consumer_collection);
          for (const RefLeg& leg : legs(mapping, e)) {
            const Channel ch = machine_.channel(src, dst, leg.inter);
            double elapsed =
                ch.latency_s +
                leg.bytes / (leg.parallelism * ch.bandwidth_bytes_per_s);
            elapsed *= noise.lognormal_factor(options_.noise_sigma / 2);
            if (fm.copy_fault_prob > 0.0 &&
                faults.bernoulli(fm.copy_fault_prob))
              elapsed *= 2.0;
            const std::string resource =
                leg.inter ? "network"
                          : "channel " + std::string(to_string(src)) + "-" +
                                std::string(to_string(dst));
            const double start = std::max(arrival, busy_until[resource]);
            busy_until[resource] = start + elapsed;
            arrival = start + elapsed;
            ++out.events;
            (leg.inter ? inter : intra) +=
                static_cast<std::uint64_t>(leg.bytes);
            out.energy_joules += leg.bytes * (leg.inter ? 0.5e-9 : 20e-12);
          }
          ready = std::max(ready, arrival);
        }

        const bool dist = tm.distribute && machine_.num_nodes() > 1;
        const std::string pool = std::string(to_string(tm.proc)) + " pool";
        double pool_free = busy_until[pool + " leader"];
        if (dist) pool_free = std::max(pool_free, busy_until[pool + " others"]);
        const double start = std::max(ready, pool_free);
        double duration = task_duration(mapping, t) *
                          noise.lognormal_factor(options_.noise_sigma);
        ++out.events;
        if (fm.straggler_prob > 0.0 && faults.bernoulli(fm.straggler_prob))
          duration *= fm.straggler_factor;
        if (fm.crash_prob > 0.0 && faults.bernoulli(fm.crash_prob)) {
          out.transient = true;
          out.total_seconds =
              std::max(makespan, start + faults.uniform() * duration);
          return out;
        }
        const double end = start + duration;
        busy_until[pool + " leader"] = end;
        if (dist) busy_until[pool + " others"] = end;
        finish[t.index()] = end;
        makespan = std::max(makespan, end);
        out.busy[t.index()] += duration;
        const GroupTask& task = graph_.task(t);
        const int nodes = dist ? machine_.num_nodes() : 1;
        const std::int64_t busy_instances =
            std::min<std::int64_t>(ceil_div(task.num_points, nodes),
                                   machine_.procs_per_node(tm.proc));
        out.energy_joules += duration *
                             machine_.proc_group(tm.proc).watts_busy *
                             static_cast<double>(busy_instances) * nodes;
      }
      prev_finish = finish;
    }
    out.ok = true;
    out.total_seconds = makespan;
    out.intra_bytes = intra / static_cast<std::uint64_t>(iters);
    out.inter_bytes = inter / static_cast<std::uint64_t>(iters);
    for (double& b : out.busy) b /= iters;
    return out;
  }

 private:
  static std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return (a + b - 1) / b;
  }

  /// The capacity pass: tasks in id order, each argument walks its
  /// priority list; an instance per (collection, kind, layout) is charged
  /// once, split over the allocations it interleaves across, on every
  /// node it spans. False when some argument fits nowhere.
  bool place(const Mapping& mapping) const {
    resolved_.clear();
    used_.clear();
    std::set<std::tuple<std::uint32_t, MemKind, bool>> instances;
    for (const GroupTask& task : graph_.tasks()) {
      const TaskMapping& tm = mapping.at(task.id);
      const bool dist = tm.distribute && machine_.num_nodes() > 1;
      const int nodes = dist ? machine_.num_nodes() : 1;
      const std::int64_t per_node = ceil_div(task.num_points, nodes);
      for (std::size_t a = 0; a < task.args.size(); ++a) {
        const CollectionId c = task.args[a].collection;
        bool placed = false;
        for (const MemKind kind : mapping.memories(task.id)[a]) {
          if (!machine_.addressable(tm.proc, kind)) continue;
          if (instances.contains({c.value(), kind, dist})) {
            placed = true;
          } else {
            const std::int64_t spread = std::max<std::int64_t>(
                1, std::min<std::int64_t>(machine_.mems_per_node(kind),
                                          per_node));
            const std::uint64_t share = graph_.collection_bytes(c) /
                                        static_cast<std::uint64_t>(nodes) /
                                        static_cast<std::uint64_t>(spread);
            bool fits = true;
            for (int n = 0; n < nodes; ++n)
              fits = fits && used_[{n, kind}] + share <=
                                 machine_.mem_capacity(kind);
            if (fits) {
              for (int n = 0; n < nodes; ++n) used_[{n, kind}] += share;
              instances.insert({c.value(), kind, dist});
              placed = true;
            }
          }
          if (placed) {
            resolved_[{task.id.index(), a}] = kind;
            break;
          }
        }
        if (!placed) return false;
      }
    }
    return true;
  }

  /// Resolved memory of the first argument of `t` naming `c`.
  MemKind memory_of(TaskId t, CollectionId c) const {
    const GroupTask& task = graph_.task(t);
    for (std::size_t a = 0; a < task.args.size(); ++a)
      if (task.args[a].collection == c) return resolved_.at({t.index(), a});
    ADD_FAILURE() << "edge names a collection its task lacks";
    return MemKind::kSystem;
  }

  /// The inferred copy legs of a dependence edge, in the order they run.
  std::vector<RefLeg> legs(const Mapping& mapping,
                           const DependenceEdge& e) const {
    if (!e.carries_data) return {};
    const MemKind src = memory_of(e.producer, e.producer_collection);
    const MemKind dst = memory_of(e.consumer, e.consumer_collection);
    const bool copy_needed =
        src != dst || (e.producer_collection != e.consumer_collection &&
                       src != MemKind::kZeroCopy);
    const double n = machine_.num_nodes();
    const double bytes = static_cast<double>(e.bytes);
    const TaskMapping& p = mapping.at(e.producer);
    const TaskMapping& c = mapping.at(e.consumer);
    const bool p_dist = p.distribute && n > 1;
    const bool c_dist = c.distribute && n > 1;
    std::vector<RefLeg> out;
    if (p_dist && c_dist) {
      const double f = p.blocked && c.blocked
                           ? e.internode_fraction
                           : std::min(1.0, e.internode_fraction * 1.6);
      const double inter = bytes * f;
      if (inter > 0.0) out.push_back({inter, n, true});
      if (copy_needed && bytes - inter > 0.0)
        out.push_back({bytes - inter, n, false});
    } else if (p_dist != c_dist) {
      if (bytes * (n - 1) / n > 0.0)
        out.push_back({bytes * (n - 1) / n, 1, true});
      if (copy_needed) out.push_back({bytes / n, 1, false});
    } else if (copy_needed) {
      out.push_back({bytes, 1, false});
    }
    return out;
  }

  /// Noise-free duration: runtime overhead + compute + memory access.
  double task_duration(const Mapping& mapping, TaskId t) const {
    const GroupTask& task = graph_.task(t);
    const TaskMapping& tm = mapping.at(t);
    const ProcGroup& pg = machine_.proc_group(tm.proc);
    const bool dist = tm.distribute && machine_.num_nodes() > 1;
    const int nodes = dist ? machine_.num_nodes() : 1;
    const std::int64_t per_node = ceil_div(task.num_points, nodes);
    const double waves =
        static_cast<double>(ceil_div(per_node, pg.count_per_node));
    const double per_point = tm.proc == ProcKind::kGpu
                                 ? task.cost.gpu_seconds_per_point
                                 : task.cost.cpu_seconds_per_point;
    double duration = machine_.runtime_overhead() +
                      waves * (pg.launch_overhead_s + per_point / pg.speed);
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const MemKind m = resolved_.at({t.index(), a});
      const Affinity aff = machine_.affinity(tm.proc, m);
      const CollectionUse& use = task.args[a];
      const double bytes =
          static_cast<double>(graph_.collection_bytes(use.collection)) *
          use.access_fraction / nodes;
      double bw = aff.bandwidth_bytes_per_s;
      if (m == MemKind::kFrameBuffer)
        bw *= static_cast<double>(std::min<std::int64_t>(
            {per_node, pg.count_per_node, machine_.mems_per_node(m)}));
      double mem = aff.latency_s * waves;
      if (tm.proc == ProcKind::kCpu && m == MemKind::kSystem &&
          machine_.mems_per_node(m) > 1) {
        const double cross = std::min(
            bw, 2.0 * machine_.cross_socket_channel().bandwidth_bytes_per_s);
        mem += bytes / 2 / bw + bytes / 2 / cross;
      } else {
        mem += bytes / bw;
      }
      duration += mem;
    }
    return duration;
  }

  const MachineModel& machine_;
  const TaskGraph& graph_;
  SimOptions options_;
  // Scratch of the last run's capacity pass.
  mutable std::map<std::pair<std::size_t, std::size_t>, MemKind> resolved_;
  mutable std::map<std::pair<int, MemKind>, std::uint64_t> used_;
};

/// Shepard with every memory allocation shrunk to a few MiB, so random
/// graphs fill it: placements demote, some fail, and memory pressure bites.
MachineModel tiny_shepard(int nodes) {
  std::string text = machine_to_string(make_shepard(nodes));
  for (const auto& [from, to] :
       {std::pair{"capacity 68719476736", "capacity 3000000"},
        std::pair{"capacity 64424509440", "capacity 4000000"},
        std::pair{"capacity 17179869184", "capacity 2000000"}}) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, std::string(from).size(), to);
  }
  return machine_from_string(text);
}

void expect_near_rel(double reference, double simulated, const char* what) {
  EXPECT_LE(std::abs(reference - simulated),
            kRelTol * std::max(std::abs(reference), std::abs(simulated)))
      << what << ": reference " << reference << ", simulator " << simulated;
}

struct Config {
  const char* name;
  double sigma;
  FaultModel faults;
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

class ReferenceSimulator : public ::testing::TestWithParam<Config> {};

TEST_P(ReferenceSimulator, AgreesWithSimulator) {
  const Config& config = GetParam();
  const std::vector<MachineModel> machines = {make_shepard(1), make_shepard(2),
                                              tiny_shepard(2)};
  int complete = 0, oom = 0, transient = 0;
  for (std::uint64_t graph_seed = 1; graph_seed <= 40; ++graph_seed) {
    Rng rng(graph_seed * 7919);
    const TaskGraph graph = random_graph(rng);
    for (const MachineModel& machine : machines) {
      const SimOptions options{.iterations = 3,
                               .noise_sigma = config.sigma,
                               .faults = config.faults};
      const Simulator sim(machine, graph, options);
      const ReferenceSim ref(machine, graph, options);
      for (int m = 0; m < 6; ++m) {
        const Mapping mapping = random_mapping(graph, machine, rng);
        ASSERT_EQ(mapping.violations(graph, machine),
                  std::vector<std::string>{});
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE("graph " + std::to_string(graph_seed) + " on " +
                       machine.name() + "(" +
                       std::to_string(machine.num_nodes()) + "), mapping " +
                       std::to_string(m) + ", seed " + std::to_string(seed));
          const RefRun want = ref.run(mapping, seed);
          const ExecutionReport got = sim.run(mapping, seed);
          ASSERT_EQ(got.ok, want.ok) << got.failure;
          ASSERT_EQ(got.transient, want.transient) << got.failure;
          EXPECT_EQ(!got.ok && !got.transient, want.oom) << got.failure;
          EXPECT_EQ(got.events, want.events);
          if (want.transient) {
            ++transient;
            expect_near_rel(want.total_seconds, got.total_seconds,
                            "clock at the abort");
            continue;
          }
          if (!want.ok) {
            ++oom;
            continue;
          }
          ++complete;
          expect_near_rel(want.total_seconds, got.total_seconds, "makespan");
          expect_near_rel(want.energy_joules, got.energy_joules, "energy");
          EXPECT_EQ(got.intra_node_copy_bytes, want.intra_bytes);
          EXPECT_EQ(got.inter_node_copy_bytes, want.inter_bytes);
          const std::vector<TaskTimeBreakdown> times = task_times(graph, got);
          for (std::size_t t = 0; t < graph.num_tasks(); ++t)
            expect_near_rel(want.busy[t], times[t].busy_seconds,
                            "task busy time");

          // The bound is exact: a run is censored iff its makespan
          // exceeds the bound, and the crossing clock is the makespan.
          SimScratch scratch;
          ASSERT_TRUE(sim.begin_runs(mapping, scratch));
          const double makespan = got.total_seconds;
          const ExecutionReport& below = sim.run_prepared(
              mapping, seed, scratch, std::nextafter(makespan, 0.0));
          EXPECT_TRUE(below.censored);
          EXPECT_EQ(below.total_seconds, makespan);
          const ExecutionReport& at =
              sim.run_prepared(mapping, seed, scratch, makespan);
          EXPECT_FALSE(at.censored);
          EXPECT_EQ(at.total_seconds, makespan);
        }
      }
    }
  }
  // Every configuration completes runs and sees placements fail; each
  // transient fault kind fires.
  EXPECT_GT(complete, 1000);
  EXPECT_GT(oom, 0);
  if (config.faults.crash_prob > 0.0 || config.faults.mem_pressure_prob > 0.0)
    EXPECT_GT(transient, 0);
  else
    EXPECT_EQ(transient, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReferenceSimulator,
    ::testing::Values(
        Config{"Sigma0", 0.0, {}}, Config{"Noise", 0.05, {}},
        Config{"Crash", 0.05, {.crash_prob = 0.02}},
        Config{"Straggler", 0.05,
               {.straggler_prob = 0.2, .straggler_factor = 3.0}},
        Config{"MemPressure", 0.05,
               {.mem_pressure_prob = 0.5, .mem_pressure_headroom = 0.5}},
        Config{"CopyFault", 0.05, {.copy_fault_prob = 0.2}}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace automap
