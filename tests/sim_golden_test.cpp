// Golden pins of the simulator's outputs: stencil, pennant and HTR under
// their default mapping, the search's starting point and a mixed CPU/GPU
// mapping, each run unbounded, bounded at half its makespan (censored) and
// under fault injection, with and without noise. The other simulator tests
// check orderings and compare runs of the same code with each other; these
// compare against values recorded from a known-good build, so a refactor
// of the event loop that reorders one draw or one addition fails here.
//
// At noise_sigma = 0 the event loop is pure IEEE arithmetic (fault draws
// are `uniform() < p`), so the pins are exact bit patterns. With noise each
// log-normal factor is `exp` of a ziggurat draw, whose wedge and tail paths
// also call `exp` and `log`; those are the only libm calls, so noisy rows
// compare to 1e-12 relative: that tolerates another libm's last bit, while
// a change in draw order moves a value by about sigma. A deliberate
// cost-model or generator change re-pins by pasting the "actual" rows the
// failure messages print.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/automap/automap.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {
namespace {

struct Pin {
  const char* app;
  const char* mapping;  // "default" | "start" | "mixed"
  const char* run;      // "unbounded" | "censored" | "faults"
  bool noisy;
  double total_seconds;
  double energy_joules;
  std::uint64_t events;
  std::uint64_t intra_node_copy_bytes;
  std::uint64_t inter_node_copy_bytes;
  bool censored;
};

// clang-format off
constexpr Pin kPins[] = {
    {"stencil", "default", "unbounded", false, 0x1.e9dd3d936e547p-8, 0x1.6464212a47c8bp+1, 236u, 0u, 216460u, false},
    {"stencil", "default", "censored", false, 0x1.0e8d0b558f12p-8, 0x1.64667f4adbdf8p+0, 127u, 0u, 1154560u, true},
    {"stencil", "default", "faults", false, 0x1.f0e0896fb22fp-8, 0x1.6464212a47c8bp+1, 236u, 0u, 216460u, false},
    {"stencil", "start", "unbounded", false, 0x1.e9dd3d936e547p-8, 0x1.6464212a47c8bp+1, 236u, 0u, 216460u, false},
    {"stencil", "start", "censored", false, 0x1.0e8d0b558f12p-8, 0x1.64667f4adbdf8p+0, 127u, 0u, 1154560u, true},
    {"stencil", "start", "faults", false, 0x1.f0e0896fb22fp-8, 0x1.6464212a47c8bp+1, 236u, 0u, 216460u, false},
    {"stencil", "mixed", "unbounded", false, 0x1.e1f757a3cd85bp-8, 0x1.8819c0c8ad4c4p+0, 434u, 1886630u, 1929830u, false},
    {"stencil", "mixed", "censored", false, 0x1.13b76b9e3be5bp-8, 0x1.885f9e2ff6919p-1, 237u, 10481280u, 10673280u, true},
    {"stencil", "mixed", "faults", false, 0x1.e784f6dd7300bp-8, 0x1.8819c0c8ad4c4p+0, 434u, 1886630u, 1929830u, false},
    {"stencil", "default", "unbounded", true, 0x1.ebe7db6d42d8cp-8, 0x1.66a16ba569958p+1, 236u, 0u, 216460u, false},
    {"stencil", "default", "censored", true, 0x1.0e037c710a541p-8, 0x1.64968482b5d4ap+0, 127u, 0u, 1154560u, true},
    {"stencil", "default", "faults", true, 0x1.f2eb049ec51c2p-8, 0x1.66a16ba569958p+1, 236u, 0u, 216460u, false},
    {"stencil", "start", "unbounded", true, 0x1.ebe7db6d42d8cp-8, 0x1.66a16ba569958p+1, 236u, 0u, 216460u, false},
    {"stencil", "start", "censored", true, 0x1.0e037c710a541p-8, 0x1.64968482b5d4ap+0, 127u, 0u, 1154560u, true},
    {"stencil", "start", "faults", true, 0x1.f2eb049ec51c2p-8, 0x1.66a16ba569958p+1, 236u, 0u, 216460u, false},
    {"stencil", "mixed", "unbounded", true, 0x1.e591049817562p-8, 0x1.8b8e0fcb9e76ap+0, 434u, 1886630u, 1929830u, false},
    {"stencil", "mixed", "censored", true, 0x1.153ec88a9cbbap-8, 0x1.88d8ca9c114a8p-1, 237u, 10481280u, 10673280u, true},
    {"stencil", "mixed", "faults", true, 0x1.eb24e0cb09902p-8, 0x1.8b8e0fcb9e76ap+0, 434u, 1886630u, 1929830u, false},
    {"pennant", "default", "unbounded", false, 0x1.b4a1b6429b6cdp-5, 0x1.a8b4bdf236833p+4, 330u, 0u, 368640u, false},
    {"pennant", "default", "censored", false, 0x1.b753ed36f94d2p-6, 0x1.a8b4bdf236827p+3, 166u, 0u, 1843200u, true},
    {"pennant", "default", "faults", false, 0x1.52c041932c60ep-7, 0x1.44440594ff0b5p+2, 61u, 0u, 737280u, false},
    {"pennant", "start", "unbounded", false, 0x1.b4a1b6429b6cdp-5, 0x1.a8b4bdf236833p+4, 330u, 0u, 368640u, false},
    {"pennant", "start", "censored", false, 0x1.b753ed36f94d2p-6, 0x1.a8b4bdf236827p+3, 166u, 0u, 1843200u, true},
    {"pennant", "start", "faults", false, 0x1.52c041932c60ep-7, 0x1.44440594ff0b5p+2, 61u, 0u, 737280u, false},
    {"pennant", "mixed", "unbounded", false, 0x1.ec9b6b829f98dp-5, 0x1.c3a1ce165a4f7p+3, 1003u, 30299545u, 15805952u, false},
    {"pennant", "mixed", "censored", false, 0x1.eda8a9694a886p-6, 0x1.be808b6281c2cp+2, 498u, 151036416u, 78338560u, true},
    {"pennant", "mixed", "faults", false, 0x1.0bd8aece51bfep-9, 0x1.2860437f4f44fp-1, 31u, 11289600u, 6220800u, false},
    {"pennant", "default", "unbounded", true, 0x1.b35f7a1d627fp-5, 0x1.a77ae66d4bdbbp+4, 330u, 0u, 368640u, false},
    {"pennant", "default", "censored", true, 0x1.b5607e1bb5f94p-6, 0x1.a701e35fe4341p+3, 165u, 0u, 1843200u, true},
    {"pennant", "default", "faults", true, 0x1.519f87c50a64cp-7, 0x1.4337c371f7f63p+2, 61u, 0u, 737280u, false},
    {"pennant", "start", "unbounded", true, 0x1.b35f7a1d627fp-5, 0x1.a77ae66d4bdbbp+4, 330u, 0u, 368640u, false},
    {"pennant", "start", "censored", true, 0x1.b5607e1bb5f94p-6, 0x1.a701e35fe4341p+3, 165u, 0u, 1843200u, true},
    {"pennant", "start", "faults", true, 0x1.519f87c50a64cp-7, 0x1.4337c371f7f63p+2, 61u, 0u, 737280u, false},
    {"pennant", "mixed", "unbounded", true, 0x1.edf36f3ec5c39p-5, 0x1.c60e2837d105bp+3, 1003u, 30299545u, 15805952u, false},
    {"pennant", "mixed", "censored", true, 0x1.eee6c1266ec4ap-6, 0x1.c650ca117852ep+2, 501u, 151497216u, 78799360u, true},
    {"pennant", "mixed", "faults", true, 0x1.0b90f4fac4bc5p-9, 0x1.237f517c938a6p-1, 31u, 11289600u, 6220800u, false},
    {"htr", "default", "unbounded", false, 0x1.63ff26609c75bp-5, 0x1.5acbf72e184d8p+4, 339u, 0u, 64665u, false},
    {"htr", "default", "censored", false, 0x1.63ff26609c75ep-6, 0x1.5857435493d19p+3, 169u, 0u, 316416u, true},
    {"htr", "default", "faults", false, 0x1.260a6433f8a73p-5, 0x1.1ddb435e3efe3p+4, 240u, 0u, 448512u, false},
    {"htr", "start", "unbounded", false, 0x1.63ff26609c75bp-5, 0x1.5acbf72e184d8p+4, 339u, 0u, 64665u, false},
    {"htr", "start", "censored", false, 0x1.63ff26609c75ep-6, 0x1.5857435493d19p+3, 169u, 0u, 316416u, true},
    {"htr", "start", "faults", false, 0x1.260a6433f8a73p-5, 0x1.1ddb435e3efe3p+4, 240u, 0u, 448512u, false},
    {"htr", "mixed", "unbounded", false, 0x1.008cb8d56ef47p-5, 0x1.57c2b291a41bdp+3, 876u, 2112460u, 1078732u, false},
    {"htr", "mixed", "censored", false, 0x1.0320483a00338p-6, 0x1.580b44ca4c037p+2, 437u, 10448000u, 5362560u, true},
    {"htr", "mixed", "faults", false, 0x1.1c04042cc83d1p-6, 0x1.71ab7e01ba484p+2, 431u, 10337408u, 5251968u, false},
    {"htr", "default", "unbounded", true, 0x1.650f5a50ad87cp-5, 0x1.5bd49b96026e5p+4, 339u, 0u, 64665u, false},
    {"htr", "default", "censored", true, 0x1.67903151b92edp-6, 0x1.5bc484a1185c3p+3, 170u, 0u, 316416u, true},
    {"htr", "default", "faults", true, 0x1.267fb592cb644p-5, 0x1.1e515978f175ap+4, 240u, 0u, 448512u, false},
    {"htr", "start", "unbounded", true, 0x1.650f5a50ad87cp-5, 0x1.5bd49b96026e5p+4, 339u, 0u, 64665u, false},
    {"htr", "start", "censored", true, 0x1.67903151b92edp-6, 0x1.5bc484a1185c3p+3, 170u, 0u, 316416u, true},
    {"htr", "start", "faults", true, 0x1.267fb592cb644p-5, 0x1.1e515978f175ap+4, 240u, 0u, 448512u, false},
    {"htr", "mixed", "unbounded", true, 0x1.0075d60866981p-5, 0x1.580ae87125781p+3, 876u, 2112460u, 1078732u, false},
    {"htr", "mixed", "censored", true, 0x1.01437a1369d26p-6, 0x1.556441d95c44bp+2, 431u, 10337408u, 5251968u, true},
    {"htr", "mixed", "faults", true, 0x1.1c67b7dad2823p-6, 0x1.739774216dad8p+2, 431u, 10337408u, 5251968u, false},
};
// clang-format on

constexpr std::uint64_t kSeed = 11;

std::string literal(const Pin& p) {
  std::ostringstream os;
  os << std::hexfloat << "    {\"" << p.app << "\", \"" << p.mapping
     << "\", \"" << p.run << "\", " << (p.noisy ? "true" : "false") << ", "
     << p.total_seconds << ", " << p.energy_joules << ", " << p.events
     << "u, " << p.intra_node_copy_bytes << "u, " << p.inter_node_copy_bytes
     << "u, " << (p.censored ? "true" : "false") << "},";
  return os.str();
}

Pin observed(const char* app, const char* mapping, const char* run,
             bool noisy, const ExecutionReport& r) {
  return {app,
          mapping,
          run,
          noisy,
          r.total_seconds,
          r.energy_joules,
          r.events,
          r.intra_node_copy_bytes,
          r.inter_node_copy_bytes,
          r.censored};
}

/// The starting point with every other task moved to CPU/System memory
/// and a mix of distributed, leader-only, blocked and round-robin tasks, so
/// copies cross intra-node channels, the network and gather/scatter legs.
Mapping mixed_mapping(const TaskGraph& graph, const MachineModel& machine) {
  Mapping m = search_starting_point(graph, machine);
  for (const GroupTask& task : graph.tasks()) {
    const std::size_t i = task.id.index();
    TaskMapping& tm = m.at(task.id);
    if (i % 2 == 0 && task.cost.cpu_seconds_per_point >= 0.0) {
      tm.proc = ProcKind::kCpu;
      std::ranges::fill(m.memories(task.id), MemPriority{MemKind::kSystem});
    }
    tm.distribute = i % 3 != 0;
    tm.blocked = i % 5 != 0;
  }
  return m;
}

/// Every pinned run of one app, in kPins order.
std::vector<Pin> observe_app(const char* name) {
  const BenchmarkApp app = make_app_by_name(name, 2, 0);
  const MachineModel machine = make_shepard(2);
  const Mapping default_mapping = DefaultMapper().map_all(app.graph, machine);
  const Mapping start = search_starting_point(app.graph, machine);
  const Mapping mixed = mixed_mapping(app.graph, machine);
  const std::pair<const char*, const Mapping*> mappings[] = {
      {"default", &default_mapping}, {"start", &start}, {"mixed", &mixed}};

  std::vector<Pin> out;
  for (const bool noisy : {false, true}) {
    SimOptions options = app.sim;
    if (!noisy) options.noise_sigma = 0.0;
    SimOptions fault_options = options;
    fault_options.faults = {.crash_prob = 0.002,
                            .straggler_prob = 0.05,
                            .mem_pressure_prob = 0.2,
                            .copy_fault_prob = 0.05};
    const Simulator sim(machine, app.graph, options);
    const Simulator faulty(machine, app.graph, fault_options);
    for (const auto& [label, mapping] : mappings) {
      const ExecutionReport full = sim.run(*mapping, kSeed);
      out.push_back(observed(name, label, "unbounded", noisy, full));
      SimScratch scratch;
      EXPECT_TRUE(sim.begin_runs(*mapping, scratch));
      out.push_back(observed(
          name, label, "censored", noisy,
          sim.run_prepared(*mapping, kSeed, scratch,
                           0.5 * full.total_seconds)));
      out.push_back(observed(name, label, "faults", noisy,
                             faulty.run(*mapping, kSeed)));
    }
  }
  return out;
}

bool same_value(double pinned, double actual, bool noisy) {
  if (!noisy)
    return std::bit_cast<std::uint64_t>(pinned) ==
           std::bit_cast<std::uint64_t>(actual);
  return std::abs(actual - pinned) <= 1e-12 * std::abs(pinned);
}

void expect_pinned(const char* name) {
  std::vector<const Pin*> pins;
  for (const Pin& p : kPins)
    if (std::string(p.app) == name) pins.push_back(&p);
  const std::vector<Pin> actual = observe_app(name);
  EXPECT_EQ(pins.size(), actual.size()) << "pinned rows for " << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const Pin& a = actual[i];
    const bool matches =
        i < pins.size() && std::string(pins[i]->mapping) == a.mapping &&
        std::string(pins[i]->run) == a.run && pins[i]->noisy == a.noisy &&
        same_value(pins[i]->total_seconds, a.total_seconds, a.noisy) &&
        same_value(pins[i]->energy_joules, a.energy_joules, a.noisy) &&
        pins[i]->events == a.events &&
        pins[i]->intra_node_copy_bytes == a.intra_node_copy_bytes &&
        pins[i]->inter_node_copy_bytes == a.inter_node_copy_bytes &&
        pins[i]->censored == a.censored;
    EXPECT_TRUE(matches) << "row " << i << "\n  pinned: "
                         << (i < pins.size() ? literal(*pins[i]) : "none")
                         << "\n  actual: " << literal(a);
  }
}

TEST(SimGolden, StencilRunsMatchPins) { expect_pinned("stencil"); }
TEST(SimGolden, PennantRunsMatchPins) { expect_pinned("pennant"); }
TEST(SimGolden, HtrRunsMatchPins) { expect_pinned("htr"); }

TEST(SimGolden, HtrRobustSearchMatchesPin) {
  // The search a `search_robust` benchmark op runs with search seed 1:
  // `automap_cli search` on a text round trip of shepard(1) and HTR step 0,
  // CCD with the paper protocol, median aggregation, one thread.
  const MachineModel machine =
      machine_from_string(machine_to_string(make_shepard(1)));
  const TaskGraph graph = task_graph_from_string(
      task_graph_to_string(make_app_by_name("htr", 1, 0).graph));
  const Simulator sim(machine, graph, SimOptions{});
  SearchOptions options{.rotations = 5,
                        .repeats = 7,
                        .seed = 1,
                        .top_k = 5,
                        .final_repeats = 31,
                        .prune_candidates = true,
                        .export_profiles_db = false};
  options.resilience.aggregation = Aggregation::kMedian;
  const SearchResult result =
      automap_optimize(sim, SearchAlgorithm::kCcd, options);

  constexpr double kBestSeconds = 0x1.11014463c94d5p-6;
  const std::string kBestMapping =
      "task 0 dist GPU ZeroCopy ZeroCopy FrameBuffer FrameBuffer\n"
      "task 1 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer\n"
      "task 2 leader GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer\n"
      "task 3 leader GPU FrameBuffer FrameBuffer FrameBuffer ZeroCopy\n"
      "task 4 dist CPU ZeroCopy System\n"
      "task 5 dist CPU System ZeroCopy\n"
      "task 6 dist CPU ZeroCopy ZeroCopy\n"
      "task 7 dist CPU ZeroCopy ZeroCopy\n"
      "task 8 dist CPU ZeroCopy ZeroCopy\n"
      "task 9 dist GPU ZeroCopy ZeroCopy\n"
      "task 10 dist CPU ZeroCopy ZeroCopy\n"
      "task 11 dist CPU ZeroCopy ZeroCopy\n"
      "task 12 dist CPU ZeroCopy System System\n"
      "task 13 dist CPU ZeroCopy ZeroCopy ZeroCopy\n"
      "task 14 dist GPU FrameBuffer ZeroCopy ZeroCopy\n"
      "task 15 dist CPU ZeroCopy ZeroCopy System\n"
      "task 16 leader CPU ZeroCopy ZeroCopy System ZeroCopy\n"
      "task 17 dist CPU ZeroCopy System\n"
      "task 18 dist CPU ZeroCopy ZeroCopy\n"
      "task 19 dist CPU ZeroCopy ZeroCopy\n"
      "task 20 dist CPU ZeroCopy ZeroCopy\n"
      "task 21 dist GPU ZeroCopy\n"
      "task 22 dist CPU ZeroCopy System\n"
      "task 23 leader CPU ZeroCopy ZeroCopy System ZeroCopy\n"
      "task 24 dist CPU ZeroCopy System\n"
      "task 25 leader CPU ZeroCopy ZeroCopy\n"
      "task 26 leader CPU ZeroCopy System ZeroCopy\n"
      "task 27 dist CPU ZeroCopy System\n";
  EXPECT_EQ(result.best.serialize(), kBestMapping);
  std::ostringstream os;
  os << std::hexfloat << result.best_seconds;
  EXPECT_TRUE(same_value(kBestSeconds, result.best_seconds, /*noisy=*/true))
      << "actual best_seconds: " << os.str();
  // The median races the censor threshold: candidates a majority of whose
  // runs cross it are censored, and the clock pays the threshold for each
  // crossed run instead of its full time.
  EXPECT_EQ(result.stats.censored, 544u);
  std::ostringstream clock;
  clock << std::hexfloat << result.stats.search_time_s;
  EXPECT_TRUE(same_value(0x1.c6cc906b1091bp+5, result.stats.search_time_s,
                         /*noisy=*/true))
      << "actual search_time_s: " << clock.str();
}

}  // namespace
}  // namespace automap
