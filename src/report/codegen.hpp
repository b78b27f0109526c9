#pragma once

// Custom-mapper code generation.
//
// The paper notes that AutoMap "helps users discover efficient mapping
// strategies to tune their custom mappers" (§5 "Results"). This generator
// turns a discovered mapping into a compilable C++ mapper source file — a
// Mapper subclass with the decisions hard-coded per task name — so the
// tuned strategy can be reviewed, edited and shipped like any hand-written
// mapper.

#include <string>

#include "src/mapping/mapping.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Emits a self-contained C++ source defining `class <class_name> :
/// public Mapper` that replays `mapping` by task name and argument count
/// (with a DefaultMapper fallback for unknown or reshaped tasks). Throws
/// Error naming `<ClassName>` when class_name is not a C++ identifier.
[[nodiscard]] std::string generate_mapper_source(
    const TaskGraph& graph, const Mapping& mapping,
    const std::string& class_name);

}  // namespace automap
