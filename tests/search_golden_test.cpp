// Golden pins of every registry algorithm's search on Stencil: the hash of
// its journal, its one-line summary and the hash of its winning mapping,
// fault-free and under fault injection. The other search tests compare
// runs of the same code with each other (pruning on and off, resume,
// daemon and one-shot); these compare against values recorded from a
// known-good build, so a refactor of the evaluator or of an algorithm's
// proposal loop that moves one censor threshold, one fold or one clock
// addition fails here.
//
// noise_sigma = 0 keeps every run pure IEEE arithmetic (fault draws are
// `uniform() < p`), so the pins are exact. The journal carries every
// candidate's status, value and clock, every move and the metric
// snapshots, which is why its hash stands for the whole search. A
// deliberate change to the search re-pins by pasting the "actual" rows the
// failure messages print.

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

struct Pin {
  const char* algorithm;
  bool faults;
  const char* journal;  // hex of hash_text(journal)
  const char* summary;  // render_search_summary
  const char* winner;   // hex of hash_text(best.serialize())
};

// clang-format off
constexpr Pin kPins[] = {
    {"ccd", false, "f27ce77d4036be5c",
     "AM-CCD: best mapping 2.17 ms after 157 suggested / 54 evaluated mappings, simulated 235.74 ms of search (100% evaluating)",
     "def8d2c7e006d56c"},
    {"ccd", true, "ac8c26f267128be8",
     "AM-CCD: best mapping 2.36 ms after 157 suggested / 54 evaluated mappings, simulated 249.83 ms of search (100% evaluating)",
     "3f742c3dbaa3b1e9"},
    {"cd", false, "f05830fdbe7add53",
     "AM-CD: best mapping 2.22 ms after 53 suggested / 31 evaluated mappings, simulated 248.37 ms of search (100% evaluating)",
     "fb502ed443a68f5f"},
    {"cd", true, "7c7f40289d80321f",
     "AM-CD: best mapping 2.28 ms after 53 suggested / 31 evaluated mappings, simulated 298.46 ms of search (100% evaluating)",
     "578880658f6bdef6"},
    {"ot", false, "7dd253804dc186c3",
     "AM-OT: best mapping 7.11 ms after 42 suggested / 6 evaluated mappings, simulated 5.126 s of search (4% evaluating)",
     "f95baed117ff8b53"},
    {"ot", true, "7858c97afcf09e2a",
     "AM-OT: best mapping 7.05 ms after 41 suggested / 10 evaluated mappings, simulated 5.200 s of search (8% evaluating)",
     "ff0a9860d98ebcb9"},
    {"random", false, "4ed6ed4f0f28b846",
     "AM-Random: best mapping 2.19 ms after 1837 suggested / 1818 evaluated mappings, simulated 5.033 s of search (100% evaluating)",
     "ec89b7cc23d89300"},
    {"random", true, "b75bfeaeff248738",
     "AM-Random: best mapping 2.20 ms after 1299 suggested / 1290 evaluated mappings, simulated 5.087 s of search (100% evaluating)",
     "1fcf5a8d9e2d7d5c"},
    {"anneal", false, "5af3a510eead1eaf",
     "AM-Anneal: best mapping 2.19 ms after 631 suggested / 503 evaluated mappings, simulated 5.040 s of search (100% evaluating)",
     "f61d68c116475969"},
    {"anneal", true, "7e607b49a5878ed1",
     "AM-Anneal: best mapping 2.26 ms after 502 suggested / 390 evaluated mappings, simulated 5.087 s of search (100% evaluating)",
     "577eef22c5d28006"},
    {"heft", false, "f06964f5c7d2c77b",
     "HEFT-static: best mapping 2.35 ms after 1 suggested / 1 evaluated mappings, simulated 18.78 ms of search (100% evaluating)",
     "ae1e48448168f8f3"},
    {"heft", true, "1c42cedaba423efc",
     "HEFT-static: best mapping 2.43 ms after 1 suggested / 1 evaluated mappings, simulated 19.56 ms of search (100% evaluating)",
     "ae1e48448168f8f3"},
    {"multistart", false, "1189f08eedda0627",
     "AM-CCD-multistart: best mapping 2.17 ms after 471 suggested / 109 evaluated mappings, simulated 431.87 ms of search (100% evaluating)",
     "172f3a7b0a44d357"},
    {"multistart", true, "935e35795b24aee9",
     "AM-CCD-multistart: best mapping 2.36 ms after 471 suggested / 158 evaluated mappings, simulated 721.25 ms of search (100% evaluating)",
     "3f742c3dbaa3b1e9"},
};

// CCD with memory fallbacks under fault injection. Each candidate runs as
// its fallback-extended copy, and the noise and fault streams of a run are
// seeded from the hash of the mapping actually simulated, so seeding them
// from the proposed mapping's hash instead moves this pin. The winner is
// returned, and journaled, as that extended copy.
constexpr Pin kFallbackPin = {
    "ccd", true, "dc02d335777783db",
    "AM-CCD: best mapping 2.19 ms after 157 suggested / 63 evaluated mappings, simulated 323.62 ms of search (100% evaluating)",
    "17a2cb65d4a10f43"};

// CCD, HEFT and OT with task 0 frozen (§3.3 subset search): CCD's sweep
// and co-location map, HEFT's per-task loop and OT's proposals each leave
// it at its starting decisions.
constexpr Pin kFrozenPins[] = {
    {"ccd", false, "43cf46060b6881d0",
     "AM-CCD: best mapping 2.89 ms after 67 suggested / 30 evaluated mappings, simulated 259.72 ms of search (100% evaluating)",
     "3e83a20d13f4e11f"},
    {"ccd", true, "62590699ef3890d2",
     "AM-CCD: best mapping 3.05 ms after 67 suggested / 29 evaluated mappings, simulated 344.74 ms of search (100% evaluating)",
     "91927466b4051b0e"},
    {"heft", false, "747a142fee38d692",
     "HEFT-static: best mapping 3.63 ms after 1 suggested / 1 evaluated mappings, simulated 29.05 ms of search (100% evaluating)",
     "126a42ea2db996f7"},
    {"heft", true, "7a0728ef96eef783",
     "HEFT-static: best mapping 3.63 ms after 1 suggested / 1 evaluated mappings, simulated 29.05 ms of search (100% evaluating)",
     "126a42ea2db996f7"},
    {"ot", false, "aa158f61df5d11b1",
     "AM-OT: best mapping 7.11 ms after 42 suggested / 5 evaluated mappings, simulated 5.168 s of search (5% evaluating)",
     "8c335c55512e441a"},
    {"ot", true, "82b606b78f94fdb6",
     "AM-OT: best mapping 7.05 ms after 42 suggested / 4 evaluated mappings, simulated 5.117 s of search (4% evaluating)",
     "8cf793d150f6d6ed"},
};
// clang-format on

std::string literal(const Pin& p) {
  std::ostringstream os;
  os << "    {\"" << p.algorithm << "\", " << (p.faults ? "true" : "false")
     << ", \"" << p.journal << "\",\n     \"" << p.summary << "\",\n     \""
     << p.winner << "\"},";
  return os.str();
}

struct Observed {
  std::string algorithm;
  bool faults = false;
  std::string journal;
  std::string summary;
  std::string winner;

  [[nodiscard]] Pin pin() const {
    return {algorithm.c_str(), faults, journal.c_str(), summary.c_str(),
            winner.c_str()};
  }
};

/// One search of `algorithm` on Stencil (shepard(1), step 0): small repeats
/// and top-k, and a simulated budget for the algorithms that have no
/// natural end.
Observed observe(const std::string& algorithm, bool faults,
                 bool fallbacks = false, bool frozen = false) {
  const BenchmarkApp app = make_app_by_name("stencil", 1, 0);
  const MachineModel machine = make_shepard(1);
  SimOptions sim_options = app.sim;
  sim_options.noise_sigma = 0.0;
  if (faults)
    sim_options.faults = {.crash_prob = 0.001, .straggler_prob = 0.02};
  const Simulator sim(machine, app.graph, sim_options);

  Journal journal;
  MetricsRegistry metrics;
  SearchOptions options{.rotations = 3,
                        .repeats = 3,
                        .seed = 7,
                        .top_k = 3,
                        .final_repeats = 5,
                        .memory_fallbacks = fallbacks};
  if (algorithm == "ot" || algorithm == "random" || algorithm == "anneal")
    options.time_budget_s = 5.0;
  if (frozen) options.frozen_tasks = {TaskId(0)};
  options.journal = &journal;
  options.metrics = &metrics;
  const SearchAlgorithmInfo* info = find_search_algorithm(algorithm);
  EXPECT_NE(info, nullptr) << algorithm;
  const SearchResult result = info->run(sim, options);
  return {algorithm, faults, hex_u64(hash_text(journal.text())),
          render_search_summary(result),
          hex_u64(hash_text(result.best.serialize()))};
}

void expect_pinned(const std::string& algorithm,
                   std::span<const Pin> pins = kPins, bool frozen = false) {
  for (const bool faults : {false, true}) {
    const Observed actual =
        observe(algorithm, faults, /*fallbacks=*/false, frozen);
    const Pin* pinned = nullptr;
    for (const Pin& p : pins)
      if (p.algorithm == algorithm && p.faults == faults) pinned = &p;
    const bool matches = pinned != nullptr &&
                         pinned->journal == actual.journal &&
                         pinned->summary == actual.summary &&
                         pinned->winner == actual.winner;
    EXPECT_TRUE(matches) << "\n  pinned: "
                         << (pinned != nullptr ? literal(*pinned) : "none")
                         << "\n  actual: " << literal(actual.pin());
  }
}

TEST(SearchGolden, CcdMatchesPins) { expect_pinned("ccd"); }
TEST(SearchGolden, CcdWithFallbacksUnderFaultsMatchesPin) {
  const Observed actual = observe("ccd", /*faults=*/true, /*fallbacks=*/true);
  EXPECT_EQ(actual.journal, kFallbackPin.journal);
  EXPECT_EQ(actual.summary, kFallbackPin.summary);
  EXPECT_EQ(actual.winner, kFallbackPin.winner);
}
TEST(SearchGolden, CdMatchesPins) { expect_pinned("cd"); }
TEST(SearchGolden, OtMatchesPins) { expect_pinned("ot"); }
TEST(SearchGolden, RandomMatchesPins) { expect_pinned("random"); }
TEST(SearchGolden, AnnealMatchesPins) { expect_pinned("anneal"); }
TEST(SearchGolden, HeftMatchesPins) { expect_pinned("heft"); }
TEST(SearchGolden, MultistartMatchesPins) { expect_pinned("multistart"); }
TEST(SearchGolden, FrozenTaskSearchesMatchPins) {
  for (const char* algorithm : {"ccd", "heft", "ot"})
    expect_pinned(algorithm, kFrozenPins, /*frozen=*/true);
}

TEST(SearchGolden, EveryRegistryAlgorithmIsPinned) {
  for (const SearchAlgorithmInfo& info : search_algorithms()) {
    int rows = 0;
    for (const Pin& p : kPins) rows += p.algorithm == info.name ? 1 : 0;
    EXPECT_EQ(rows, 2) << info.name;
  }
}

}  // namespace
}  // namespace automap
