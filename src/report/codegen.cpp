#include "src/report/codegen.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "src/support/error.hpp"

namespace automap {

namespace {

const char* proc_expr(ProcKind k) {
  return k == ProcKind::kGpu ? "ProcKind::kGpu" : "ProcKind::kCpu";
}

const char* mem_expr(MemKind k) {
  switch (k) {
    case MemKind::kSystem:
      return "MemKind::kSystem";
    case MemKind::kZeroCopy:
      return "MemKind::kZeroCopy";
    case MemKind::kFrameBuffer:
      return "MemKind::kFrameBuffer";
  }
  AM_UNREACHABLE("bad MemKind");
}

}  // namespace

std::string generate_mapper_source(const TaskGraph& graph,
                                   const Mapping& mapping,
                                   const std::string& class_name) {
  const auto word = [](unsigned char c) { return std::isalnum(c) || c == '_'; };
  if (class_name.empty() || (class_name[0] >= '0' && class_name[0] <= '9') ||
      !std::ranges::all_of(class_name, word))
    throw Error("<ClassName> must be a C++ identifier, got '" + class_name +
                "'");

  std::ostringstream os;
  os << "// Generated by AutoMap: a tuned mapping as a reviewable,\n"
     << "// editable custom mapper. Unknown tasks, and tasks whose argument\n"
     << "// count changed, fall back to the default strategy, so the mapper\n"
     << "// stays usable as the application evolves.\n"
     << "#include \"src/runtime/mapper.hpp\"\n\n"
     << "namespace automap {\n\n"
     << "class " << class_name << " final : public Mapper {\n"
     << " public:\n"
     << "  [[nodiscard]] std::string name() const override {\n"
     << "    return \"" << class_name << "\";\n"
     << "  }\n\n"
     << "  [[nodiscard]] TaskMapping map_task(\n"
     << "      const GroupTask& task, const TaskGraph& graph,\n"
     << "      const MachineModel& machine,\n"
     << "      std::span<MemPriority> memories) override {\n";

  for (const GroupTask& task : graph.tasks()) {
    const TaskMapping& tm = mapping.at(task.id);
    const auto mems = mapping.memories(task.id);
    os << "    if (task.name == \"" << task.name
       << "\" && memories.size() == " << mems.size() << ") {\n"
       << "      TaskMapping tm;\n"
       << "      tm.distribute = " << (tm.distribute ? "true" : "false")
       << ";\n";
    if (tm.distribute && tm.blocked) os << "      tm.blocked = true;\n";
    os << "      tm.proc = " << proc_expr(tm.proc) << ";\n";
    for (std::size_t a = 0; a < mems.size(); ++a) {
      os << "      memories[" << a << "] = {";
      for (std::size_t m = 0; m < mems[a].size(); ++m) {
        if (m > 0) os << ", ";
        os << mem_expr(mems[a][m]);
      }
      os << "};\n";
    }
    os << "      return tm;\n"
       << "    }\n";
  }

  os << "    // Fallback: the default strategy for tasks added, or whose\n"
     << "    // arguments changed, after this mapper was generated.\n"
     << "    DefaultMapper fallback;\n"
     << "    return fallback.map_task(task, graph, machine, memories);\n"
     << "  }\n"
     << "};\n\n"
     << "}  // namespace automap\n";
  return os.str();
}

}  // namespace automap
