#include "src/mappers/custom_mappers.hpp"

#include <functional>

#include "src/support/error.hpp"

namespace automap {

namespace {

/// Shared implementation: GPU-first with a per-collection Zero-Copy demotion
/// predicate and an optional blocked decomposition.
class HeuristicCustomMapper final : public Mapper {
 public:
  using DemoteToZeroCopy = std::function<bool(const std::string&)>;
  using SendToCpu = std::function<bool(const std::string&)>;

  HeuristicCustomMapper(std::string name, bool blocked,
                        DemoteToZeroCopy demote, SendToCpu to_cpu)
      : name_(std::move(name)),
        blocked_(blocked),
        demote_(std::move(demote)),
        to_cpu_(std::move(to_cpu)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] TaskMapping map_task(
      const GroupTask& task, const TaskGraph& graph,
      const MachineModel& machine,
      std::span<MemPriority> memories) override {
    TaskMapping tm;
    tm.distribute = true;
    tm.blocked = blocked_;
    const bool cpu = (to_cpu_ && to_cpu_(task.name)) ||
                     !task.cost.has_gpu_variant() ||
                     !machine.has_proc_kind(ProcKind::kGpu);
    tm.proc = cpu ? ProcKind::kCpu : ProcKind::kGpu;
    const MemKind fast = machine.best_memory_for(tm.proc);
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const std::string& col = graph.collection(task.args[a].collection).name;
      const bool zc = demote_ && demote_(col) &&
                      machine.addressable(tm.proc, MemKind::kZeroCopy);
      memories[a] = {zc ? MemKind::kZeroCopy : fast};
    }
    return tm;
  }

 private:
  std::string name_;
  bool blocked_;
  DemoteToZeroCopy demote_;
  SendToCpu to_cpu_;
};

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

std::unique_ptr<Mapper> make_custom_mapper(const std::string& app_name) {
  if (app_name == "circuit") {
    // Blocked decomposition (the custom mapper's edge over AutoMap's
    // round-robin, §5) and the node sets shared between pieces in
    // Zero-Copy to cut ghost-exchange copies.
    return std::make_unique<HeuristicCustomMapper>(
        "circuit-custom", /*blocked=*/true,
        [](const std::string& col) {
          return contains(col, "shared") || contains(col, "ghost");
        },
        nullptr);
  }
  if (app_name == "stencil") {
    // The PRK stencil's custom mapper matches the default strategy apart
    // from a blocked decomposition; the paper measures it at ~1.0x.
    return std::make_unique<HeuristicCustomMapper>(
        "stencil-custom", /*blocked=*/true, nullptr, nullptr);
  }
  if (app_name == "pennant") {
    // Ghost/master point-force sets in Zero-Copy; geometry stays in FB.
    return std::make_unique<HeuristicCustomMapper>(
        "pennant-custom", /*blocked=*/true,
        [](const std::string& col) {
          return contains(col, "p_f_master") || contains(col, "p_f_ghost");
        },
        nullptr);
  }
  if (app_name == "htr") {
    // Face halos shared across tiles in Zero-Copy.
    return std::make_unique<HeuristicCustomMapper>(
        "htr-custom", /*blocked=*/true,
        [](const std::string& col) { return contains(col, "halo_"); },
        nullptr);
  }
  if (app_name == "maestro") {
    // The Maestro developers' standard strategy: the low-fidelity ensemble
    // on the CPUs with its data in System memory, keeping the GPUs free
    // for the high-fidelity sample (§5.1, strategy 1).
    return std::make_unique<HeuristicCustomMapper>(
        "maestro-custom", /*blocked=*/false, nullptr,
        [](const std::string& task) { return task.rfind("lf_", 0) == 0; });
  }
  AM_REQUIRE(false, "no custom mapper for app: " + app_name);
  AM_UNREACHABLE("");
}

}  // namespace automap
