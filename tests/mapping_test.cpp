// Unit tests for the mapping representation: shape, validity (constraint 1),
// hashing, serialization round-trips and diffs, and the inline memory
// priority list.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <type_traits>

#include "src/apps/registry.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/taskgraph/task_graph.hpp"
#include "tests/random_graph.hpp"

namespace automap {
namespace {

// A list is held inline: copying a mapping must not allocate per argument.
static_assert(std::is_trivially_copyable_v<MemPriority>);

class MappingFixture : public ::testing::Test {
 protected:
  MappingFixture() {
    region = g.add_region("r", Rect::line(0, 999), 8);
    c0 = g.add_collection(region, "c0", Rect::line(0, 499));
    c1 = g.add_collection(region, "c1", Rect::line(400, 999));
    t0 = g.add_task("gpu_friendly", 8,
                    {.cpu_seconds_per_point = 1e-3,
                     .gpu_seconds_per_point = 1e-5},
                    {{c0, Privilege::kReadWrite, 1.0},
                     {c1, Privilege::kReadOnly, 1.0}});
    t1 = g.add_task("cpu_only", 8, {.cpu_seconds_per_point = 1e-3},
                    {{c1, Privilege::kReadWrite, 1.0}});
  }

  TaskGraph g;
  RegionId region;
  CollectionId c0, c1;
  TaskId t0, t1;
  MachineModel machine = make_shepard(2);
};

TEST_F(MappingFixture, DefaultShapeIsGpuFrameBuffer) {
  const Mapping m(g);
  EXPECT_EQ(m.num_tasks(), 2u);
  EXPECT_EQ(m.at(t0).proc, ProcKind::kGpu);
  EXPECT_TRUE(m.at(t0).distribute);
  EXPECT_EQ(m.primary_memory(t0, 0), MemKind::kFrameBuffer);
  EXPECT_EQ(m.memories(t0).size(), 2u);
  EXPECT_EQ(m.memories(t1).size(), 1u);
}

TEST_F(MappingFixture, ValidityCatchesMissingGpuVariant) {
  Mapping m(g);
  // t1 has no GPU variant but the default shape maps it to GPU.
  const auto violations = m.violations(g, machine);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("cpu_only"), std::string::npos);

  m.at(t1).proc = ProcKind::kCpu;
  m.set_primary_memory(t1, 0, MemKind::kSystem);
  EXPECT_TRUE(m.valid(g, machine));
}

TEST_F(MappingFixture, ValidityCatchesUnaddressableMemory) {
  Mapping m(g);
  m.at(t1).proc = ProcKind::kCpu;
  m.set_primary_memory(t1, 0, MemKind::kFrameBuffer);  // CPU cannot address FB
  EXPECT_FALSE(m.valid(g, machine));
  m.set_primary_memory(t1, 0, MemKind::kZeroCopy);
  EXPECT_TRUE(m.valid(g, machine));
}

TEST_F(MappingFixture, HashChangesWithEveryDecision) {
  Mapping base(g);
  base.at(t1).proc = ProcKind::kCpu;
  base.set_primary_memory(t1, 0, MemKind::kSystem);
  const std::uint64_t h = base.hash();

  Mapping m = base;
  m.at(t0).distribute = false;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.at(t0).blocked = true;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.at(t0).proc = ProcKind::kCpu;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.set_primary_memory(t0, 1, MemKind::kZeroCopy);
  EXPECT_NE(m.hash(), h);

  EXPECT_EQ(base.hash(), h);  // hashing is a pure function
}

TEST_F(MappingFixture, SerializeParseRoundTrip) {
  Mapping m(g);
  m.at(t0).distribute = false;
  m.set_primary_memory(t0, 1, MemKind::kZeroCopy);
  m.at(t1).proc = ProcKind::kCpu;
  m.at(t1).blocked = true;
  m.memories(t1)[0] = {MemKind::kSystem, MemKind::kZeroCopy};

  const Mapping parsed = Mapping::parse(m.serialize(), g);
  EXPECT_EQ(parsed, m);
  EXPECT_EQ(parsed.hash(), m.hash());
}

TEST_F(MappingFixture, CopyTaskCopiesTheMemoryLists) {
  Mapping from(g);
  from.at(t0).proc = ProcKind::kCpu;
  from.memories(t0)[1] = {MemKind::kSystem, MemKind::kZeroCopy};
  Mapping to(g);
  to.at(t0) = from.at(t0);  // the three decisions only
  EXPECT_NE(to, from);
  to.copy_task(t0, from);
  EXPECT_EQ(to, from);
}

TEST_F(MappingFixture, ParseRejectsMalformedText) {
  EXPECT_THROW(Mapping::parse("task 0 dist GPU", g), Error);  // missing args
  EXPECT_THROW(Mapping::parse("task 99 dist GPU FB FB", g), Error);
  EXPECT_THROW(Mapping::parse("nonsense", g), Error);
  EXPECT_THROW(Mapping::parse("", g), Error);  // covers no task
}

TEST_F(MappingFixture, ParseRejectsARepeatedTaskLine) {
  // Two lines for two tasks, but task 0 twice: accepting it would leave
  // task 1 on the constructor default (GPU, which it cannot even run on).
  EXPECT_THROW(Mapping::parse("task 0 dist CPU System System\n"
                              "task 0 leader CPU System System\n",
                              g),
               Error);
  EXPECT_NO_THROW((void)Mapping::parse("task 1 dist CPU System\n"
                                       "task 0 leader CPU System System\n",
                                       g));
}

TEST_F(MappingFixture, PriorityListsSerialize) {
  Mapping m(g);
  m.memories(t0)[0] = {MemKind::kFrameBuffer, MemKind::kZeroCopy};
  const std::string text = m.serialize();
  EXPECT_NE(text.find("FrameBuffer,ZeroCopy"), std::string::npos);
  EXPECT_EQ(Mapping::parse(text, g), m);
}

TEST_F(MappingFixture, DiffNamesChangedDecisions) {
  Mapping a(g), b(g);
  b.at(t0).proc = ProcKind::kCpu;
  b.set_primary_memory(t1, 0, MemKind::kZeroCopy);
  const auto d = a.diff(b, g);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NE(d[0].find("gpu_friendly"), std::string::npos);
  EXPECT_NE(d[1].find("cpu_only"), std::string::npos);
  EXPECT_TRUE(a.diff(a, g).empty());
}

TEST_F(MappingFixture, DescribeUsesNames) {
  const Mapping m(g);
  const std::string d = m.describe(g);
  EXPECT_NE(d.find("gpu_friendly"), std::string::npos);
  EXPECT_NE(d.find("FrameBuffer"), std::string::npos);
}

TEST_F(MappingFixture, OutOfRangeAccessThrows) {
  Mapping m(g);
  EXPECT_THROW((void)m.at(TaskId(99)), Error);
  EXPECT_THROW((void)m.primary_memory(t0, 99), Error);
  EXPECT_THROW(m.set_primary_memory(t0, 99, MemKind::kSystem), Error);
}

TEST_F(MappingFixture, ParseRejectsAKindListedTwice) {
  // A repeat could never place data its first occurrence could not, so a
  // priority list names each kind at most once; the error names the line
  // and the kind, whatever alias spelled it.
  try {
    (void)Mapping::parse("task 1 dist CPU System\n"
                         "task 0 dist GPU FrameBuffer ZeroCopy,ZC,System\n",
                         g);
    FAIL() << "a kind listed twice was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("line 2: ", 0), 0u) << what;
    EXPECT_NE(what.find("ZeroCopy twice"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)Mapping::parse(
      "task 0 dist GPU FrameBuffer,ZeroCopy,System ZeroCopy\n"
      "task 1 dist CPU System,ZeroCopy\n",
      g));
}

TEST_F(MappingFixture, ParseNamesTheLineOfAnUnknownKind) {
  for (const char* text : {"task 0 dist GPU FrameBuffer Bogus\n",
                           "task 0 dist TPU FrameBuffer FrameBuffer\n"}) {
    try {
      (void)Mapping::parse(text, g);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("line 1: unknown ", 0), 0u) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  }
}

TEST(MemPriority, CopiesComparesAndBraceInitializes) {
  const MemPriority empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty, MemPriority{});

  MemPriority list = {MemKind::kFrameBuffer, MemKind::kZeroCopy};
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.front(), MemKind::kFrameBuffer);
  EXPECT_EQ(list[1], MemKind::kZeroCopy);

  MemPriority copy = list;
  EXPECT_EQ(copy, list);
  copy.front() = MemKind::kSystem;  // a copy owns its entries
  EXPECT_NE(copy, list);
  EXPECT_EQ(list.front(), MemKind::kFrameBuffer);

  // Equality sees only the live entries, not what clear() left behind.
  copy.clear();
  copy.push_back(MemKind::kFrameBuffer);
  EXPECT_NE(copy, list);
  copy.push_back(MemKind::kZeroCopy);
  EXPECT_EQ(copy, list);
  EXPECT_NE(copy, (MemPriority{MemKind::kZeroCopy, MemKind::kFrameBuffer}));

  copy.assign(1, MemKind::kSystem);
  EXPECT_EQ(copy, MemPriority{MemKind::kSystem});
  copy = {MemKind::kZeroCopy};
  EXPECT_EQ(copy.size(), 1u);

  std::string kinds;
  for (const MemKind m : list) kinds += std::string(to_string(m)) + ";";
  EXPECT_EQ(kinds, "FrameBuffer;ZeroCopy;");
}

TEST(MemPriority, HoldsAtMostEveryKindOnce) {
  MemPriority list;
  for (const MemKind m : kAllMemKinds) list.push_back(m);
  EXPECT_EQ(list.size(), kNumMemKinds);
  EXPECT_THROW(list.push_back(MemKind::kSystem), Error);
  EXPECT_EQ(list.size(), kNumMemKinds);
}

#ifdef _GLIBCXX_ASSERTIONS
// An index past size() stays inside the inline array, where ASan cannot
// see it; the library's bounds assertions must.
TEST(MemPriorityDeathTest, IndexPastSizeAborts) {
  const MemPriority list = {MemKind::kSystem};
  EXPECT_DEATH((void)list[1], "");
  EXPECT_DEATH((void)MemPriority{}.front(), "");
}
#endif

/// Every memory priority list: each length, each order of distinct kinds.
std::vector<MemPriority> every_priority_list() {
  std::vector<MemPriority> out;
  for (const MemKind a : kAllMemKinds) {
    out.push_back({a});
    for (const MemKind b : kAllMemKinds) {
      if (b == a) continue;
      out.push_back({a, b});
      for (const MemKind c : kAllMemKinds)
        if (c != a && c != b) out.push_back({a, b, c});
    }
  }
  return out;
}

// The profiles database looks candidates up by key(): equal mappings must
// share a key, and every decision hash() sees must move key() too, so the
// key partitions mappings as the structural hash does.
TEST(MappingKey, EqualMappingsShareKeysAndEveryDecisionMovesKeyAndHash) {
  const MachineModel machine = make_shepard(2);
  const std::vector<MemPriority> lists = every_priority_list();
  ASSERT_EQ(lists.size(), 15u);
  Rng rng(11);
  int changes = 0;
  for (int g = 0; g < 20; ++g) {
    const TaskGraph graph = random_graph(rng);
    for (int n = 0; n < 4; ++n) {
      const Mapping base = random_mapping(graph, machine, rng);
      const std::uint64_t key = base.key();
      const std::uint64_t hash = base.hash();

      // Equal mappings: a copy, and one whose lists were refilled (what
      // clear() leaves behind must not reach the key).
      Mapping rebuilt = base;
      for (const GroupTask& task : graph.tasks()) {
        for (MemPriority& list : rebuilt.memories(task.id)) {
          const MemPriority kept = list;
          list.assign(1, MemKind::kSystem);
          for (const MemKind m : kAllMemKinds)
            if (m != MemKind::kSystem) list.push_back(m);
          list.clear();
          for (const MemKind m : kept) list.push_back(m);
        }
      }
      ASSERT_EQ(rebuilt, base);
      EXPECT_EQ(rebuilt.key(), key);
      EXPECT_EQ(Mapping(base).key(), key);

      const auto expect_moved = [&](const Mapping& changed,
                                    const std::string& what) {
        EXPECT_NE(changed.key(), key) << what;
        EXPECT_NE(changed.hash(), hash) << what;
        ++changes;
      };
      for (const GroupTask& task : graph.tasks()) {
        const TaskMapping& tm = base.at(task.id);
        const std::string name = "graph " + std::to_string(g) + " task " +
                                 std::to_string(task.id.index());
        // The distribution: distributed round-robin, blocked, or leader.
        for (const auto& [distribute, blocked] :
             {std::pair{true, false}, {true, true}, {false, false}}) {
          if (distribute == tm.distribute &&
              (!distribute || blocked == tm.blocked))
            continue;  // the same decision
          Mapping m = base;
          m.at(task.id).distribute = distribute;
          m.at(task.id).blocked = blocked;
          expect_moved(m, name + " distribution");
        }
        Mapping m = base;
        m.at(task.id).proc =
            tm.proc == ProcKind::kCpu ? ProcKind::kGpu : ProcKind::kCpu;
        expect_moved(m, name + " processor");
        for (std::size_t a = 0; a < task.args.size(); ++a) {
          for (const MemPriority& list : lists) {
            if (list == base.memories(task.id)[a]) continue;
            Mapping changed = base;
            changed.memories(task.id)[a] = list;
            expect_moved(changed, name + " arg " + std::to_string(a) +
                                      " list of " +
                                      std::to_string(list.size()));
          }
        }
      }
    }
  }
  EXPECT_GT(changes, 1000);
}

// `blocked` means nothing for a leader-only task: both identities ignore
// it, while Mapping == still tells the two apart.
TEST(MappingKey, LeaderTasksIgnoreBlocked) {
  const MachineModel machine = make_shepard(2);
  Rng rng(5);
  for (int g = 0; g < 20; ++g) {
    const TaskGraph graph = random_graph(rng);
    const Mapping base = random_mapping(graph, machine, rng);
    for (const GroupTask& task : graph.tasks()) {
      Mapping leader = base;
      leader.at(task.id).distribute = false;
      leader.at(task.id).blocked = false;
      Mapping blocked = leader;
      blocked.at(task.id).blocked = true;
      EXPECT_NE(blocked, leader);
      EXPECT_EQ(blocked.hash(), leader.hash());
      EXPECT_EQ(blocked.key(), leader.key());
    }
  }
}

// Every run's noise seed derives from Mapping::hash(), and every file a
// search writes holds Mapping::serialize(). These pins, recorded from a
// known-good build, keep both exact for every application's starting
// mapping (shepard(1), step 0) and for a copy whose every argument lists
// all three kinds, primary first.
struct HashPin {
  const char* app;
  const char* hash;              // hex of hash()
  const char* text;              // hex of hash_text(serialize())
  const char* all_kinds_hash;
  const char* all_kinds_text;
};

// clang-format off
constexpr HashPin kHashPins[] = {
    {"circuit", "53e0aa3f2c1a5064", "94b7747ef0dae60d", "7abea17beabb7cff", "cfea1c7ec40af931"},
    {"stencil", "5e1b168d5c0e8e25", "381e3f16771593c3", "7b56a08190df6559", "b29968f9588f05af"},
    {"pennant", "8d2c182d5506a28a", "7f46c040cc60f2e4", "68de378ce2868efa", "a9a7f12d1c105048"},
    {"htr", "d5e3fa676570e5d4", "4ae66adcbeea47c0", "2a0a6608bb5a33d4", "b166abe6a8814830"},
    {"maestro", "2e4fdecbc3a64007", "9a829316806c4941", "b6dc6f8e8c036448", "b0ba576d7a968f55"},
};
// clang-format on

TEST(MappingPins, HashAndSerializeMatchPins) {
  const MachineModel machine = make_shepard(1);
  ASSERT_EQ(std::size(kHashPins), app_names().size());
  for (const HashPin& pin : kHashPins) {
    const BenchmarkApp app = make_app_by_name(pin.app, 1, 0);
    const Mapping start = search_starting_point(app.graph, machine);
    Mapping all_kinds = start;
    for (const GroupTask& task : app.graph.tasks()) {
      for (MemPriority& priority : all_kinds.memories(task.id)) {
        const MemKind primary = priority.front();
        for (const MemKind m : kAllMemKinds)
          if (m != primary) priority.push_back(m);
      }
    }
    EXPECT_EQ(hex_u64(start.hash()), pin.hash) << pin.app;
    EXPECT_EQ(hex_u64(hash_text(start.serialize())), pin.text) << pin.app;
    EXPECT_EQ(hex_u64(all_kinds.hash()), pin.all_kinds_hash) << pin.app;
    EXPECT_EQ(hex_u64(hash_text(all_kinds.serialize())), pin.all_kinds_text)
        << pin.app;
    EXPECT_EQ(Mapping::parse(all_kinds.serialize(), app.graph), all_kinds)
        << pin.app;
  }
}

}  // namespace
}  // namespace automap
