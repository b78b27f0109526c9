#include "src/search/search.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/json.hpp"

namespace automap {

FrozenTaskSet::FrozenTaskSet(const std::vector<TaskId>& tasks,
                             std::size_t num_tasks)
    : mask_(num_tasks, false) {
  for (const TaskId t : tasks) {
    AM_REQUIRE(t.index() < num_tasks, "frozen task id out of range");
    if (!mask_[t.index()]) {
      mask_[t.index()] = true;
      ++count_;
    }
  }
}

Mapping search_starting_point(const TaskGraph& graph,
                              const MachineModel& machine) {
  Mapping m(graph);
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = m.at(task.id);
    tm.distribute = true;
    const bool gpu =
        task.cost.has_gpu_variant() && machine.has_proc_kind(ProcKind::kGpu);
    tm.proc = gpu ? ProcKind::kGpu : ProcKind::kCpu;
    tm.arg_memories.assign(task.args.size(),
                           {machine.best_memory_for(tm.proc)});
  }
  return m;
}

namespace {

const char* aggregation_name(Aggregation a) {
  switch (a) {
    case Aggregation::kMean:
      return "mean";
    case Aggregation::kMedian:
      return "median";
    case Aggregation::kTrimmedMean:
      return "trimmed_mean";
  }
  return "mean";
}

Aggregation parse_aggregation(const std::string& name) {
  if (name == "mean") return Aggregation::kMean;
  if (name == "median") return Aggregation::kMedian;
  if (name == "trimmed_mean") return Aggregation::kTrimmedMean;
  throw Error("unknown aggregation '" + name +
              "' (expected mean|median|trimmed_mean)");
}

/// Doubles that may be non-finite travel as the quoted strings the
/// journal writes ("inf"/"-inf"/"nan"); accept both shapes.
double json_wide(const JsonValue& v, const std::string& key) {
  if (v.kind == JsonValue::Kind::kNumber) return v.number;
  if (v.kind == JsonValue::Kind::kString) {
    if (v.string == "inf") return std::numeric_limits<double>::infinity();
    if (v.string == "-inf") return -std::numeric_limits<double>::infinity();
    if (v.string == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  throw Error("field '" + key + "' must be a number or \"inf\"/\"-inf\"");
}

void check_schema(const JsonValue& v, const char* what) {
  AM_REQUIRE(v.kind == JsonValue::Kind::kObject,
             std::string(what) + " must be a JSON object");
  const JsonValue* schema = v.find("schema");
  AM_REQUIRE(schema != nullptr, std::string(what) + " is missing 'schema'");
  const int version = json_int(*schema, "schema");
  AM_REQUIRE(version == kSearchOptionsSchema,
             "unsupported " + std::string(what) + " schema " +
                 std::to_string(version) + " (this build speaks " +
                 std::to_string(kSearchOptionsSchema) + ")");
}

}  // namespace

std::string search_options_to_json(const SearchOptions& o) {
  std::string out = "{\"schema\":" + std::to_string(kSearchOptionsSchema);
  out += ",\"seed\":\"" + std::to_string(o.seed) + "\"";
  out += ",\"rotations\":" + std::to_string(o.rotations);
  out += ",\"repeats\":" + std::to_string(o.repeats);
  out += ",\"budget\":" + json_double(o.time_budget_s);
  out += ",\"top_k\":" + std::to_string(o.top_k);
  out += ",\"final_repeats\":" + std::to_string(o.final_repeats);
  out += ",\"objective\":\"";
  out += o.objective == Objective::kEnergy ? "energy" : "time";
  out += "\"";
  out += ",\"fallbacks\":";
  out += o.memory_fallbacks ? "true" : "false";
  out += ",\"distribution_strategies\":";
  out += o.search_distribution_strategies ? "true" : "false";
  out += ",\"prune\":";
  out += o.prune_candidates ? "true" : "false";
  out += ",\"frozen\":[";
  for (std::size_t i = 0; i < o.frozen_tasks.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(o.frozen_tasks[i].index());
  }
  out += "]";
  out += ",\"max_retries\":" + std::to_string(o.resilience.max_retries);
  out += ",\"quarantine_after\":" +
         std::to_string(o.resilience.quarantine_after);
  out += ",\"retry_backoff_s\":" + json_double(o.resilience.retry_backoff_s);
  out += ",\"aggregation\":\"";
  out += aggregation_name(o.resilience.aggregation);
  out += "\"";
  out += ",\"snapshot_every\":" + std::to_string(o.journal_snapshot_every);
  out += "}";
  return out;
}

SearchOptions search_options_from_json(const JsonValue& v) {
  check_schema(v, "SearchOptions");
  SearchOptions o;
  for (const auto& [key, value] : v.object) {
    if (key == "schema") {
      continue;  // validated above
    } else if (key == "seed") {
      o.seed = json_u64(value, key);
    } else if (key == "rotations") {
      o.rotations = json_int(value, key);
    } else if (key == "repeats") {
      o.repeats = json_int(value, key);
    } else if (key == "budget") {
      o.time_budget_s = json_wide(value, key);
    } else if (key == "top_k") {
      o.top_k = json_int(value, key);
    } else if (key == "final_repeats") {
      o.final_repeats = json_int(value, key);
    } else if (key == "objective") {
      const std::string name = json_str(value, key);
      if (name == "time") {
        o.objective = Objective::kExecutionTime;
      } else if (name == "energy") {
        o.objective = Objective::kEnergy;
      } else {
        throw Error("unknown objective '" + name +
                    "' (expected time|energy)");
      }
    } else if (key == "fallbacks") {
      o.memory_fallbacks = json_bool(value, key);
    } else if (key == "distribution_strategies") {
      o.search_distribution_strategies = json_bool(value, key);
    } else if (key == "prune") {
      o.prune_candidates = json_bool(value, key);
    } else if (key == "frozen") {
      AM_REQUIRE(value.kind == JsonValue::Kind::kArray,
                 "field 'frozen' must be an array");
      for (const JsonValue& f : value.array)
        o.frozen_tasks.push_back(
            TaskId(static_cast<std::size_t>(json_int(f, key, 0))));
    } else if (key == "max_retries") {
      o.resilience.max_retries = json_int(value, key);
    } else if (key == "quarantine_after") {
      o.resilience.quarantine_after = json_int(value, key);
    } else if (key == "retry_backoff_s") {
      o.resilience.retry_backoff_s = json_wide(value, key);
    } else if (key == "aggregation") {
      o.resilience.aggregation = parse_aggregation(json_str(value, key));
    } else if (key == "snapshot_every") {
      o.journal_snapshot_every = json_int(value, key);
    } else {
      throw Error("unknown SearchOptions field '" + key + "'");
    }
  }
  return o;
}

SearchOptions search_options_from_json(const std::string& text) {
  return search_options_from_json(parse_json(text));
}

std::string sim_options_to_json(const SimOptions& o) {
  std::string out = "{\"schema\":" + std::to_string(kSearchOptionsSchema);
  out += ",\"iterations\":" + std::to_string(o.iterations);
  out += ",\"noise_sigma\":" + json_double(o.noise_sigma);
  out += ",\"fault_crash\":" + json_double(o.faults.crash_prob);
  out += ",\"fault_straggler\":" + json_double(o.faults.straggler_prob);
  out += ",\"fault_straggler_factor\":" +
         json_double(o.faults.straggler_factor);
  out += ",\"fault_mem_pressure\":" + json_double(o.faults.mem_pressure_prob);
  out += ",\"fault_mem_headroom\":" +
         json_double(o.faults.mem_pressure_headroom);
  out += ",\"fault_copy\":" + json_double(o.faults.copy_fault_prob);
  out += "}";
  return out;
}

SimOptions sim_options_from_json(const JsonValue& v) {
  check_schema(v, "SimOptions");
  SimOptions o;
  for (const auto& [key, value] : v.object) {
    if (key == "schema") {
      continue;
    } else if (key == "iterations") {
      o.iterations = json_int(value, key);
    } else if (key == "noise_sigma") {
      o.noise_sigma = json_wide(value, key);
    } else if (key == "fault_crash") {
      o.faults.crash_prob = json_wide(value, key);
    } else if (key == "fault_straggler") {
      o.faults.straggler_prob = json_wide(value, key);
    } else if (key == "fault_straggler_factor") {
      o.faults.straggler_factor = json_wide(value, key);
    } else if (key == "fault_mem_pressure") {
      o.faults.mem_pressure_prob = json_wide(value, key);
    } else if (key == "fault_mem_headroom") {
      o.faults.mem_pressure_headroom = json_wide(value, key);
    } else if (key == "fault_copy") {
      o.faults.copy_fault_prob = json_wide(value, key);
    } else {
      throw Error("unknown SimOptions field '" + key + "'");
    }
  }
  return o;
}

SimOptions sim_options_from_json(const std::string& text) {
  return sim_options_from_json(parse_json(text));
}

std::string render_search_summary(const SearchResult& result) {
  std::ostringstream os;
  os << result.algorithm << ": best mapping "
     << format_seconds(result.best_seconds) << " after "
     << result.stats.suggested << " suggested / " << result.stats.evaluated
     << " evaluated mappings, simulated "
     << format_seconds(result.stats.search_time_s) << " of search ("
     << format_fixed(100 * result.stats.evaluation_fraction(), 0)
     << "% evaluating)";
  return os.str();
}

double search_space_log2(const TaskGraph& graph, const MachineModel& machine) {
  // The paper's §3.2 estimate P^T * M^C under its simplifying assumption
  // (every task can run on every processor kind, M memories addressable
  // per kind — M = 2 on the machines considered). This reproduces Fig. 5's
  // exponents exactly: 2^(T + C) with two processor kinds.
  const double proc_kinds = static_cast<double>(machine.proc_kinds().size());

  // M: the smallest per-processor-kind addressable-memory count (>= 2 on
  // all machines the paper considers).
  double mems = static_cast<double>(machine.mem_kinds().size());
  for (const ProcKind k : machine.proc_kinds()) {
    mems = std::min(
        mems, static_cast<double>(machine.memories_addressable_by(k).size()));
  }

  return static_cast<double>(graph.num_tasks()) * std::log2(proc_kinds) +
         static_cast<double>(graph.num_collection_args()) * std::log2(mems);
}

}  // namespace automap
