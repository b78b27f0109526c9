#include "src/search/search.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/json.hpp"

namespace automap {

Mapping search_starting_point(const TaskGraph& graph,
                              const MachineModel& machine) {
  return DefaultMapper().map_all(graph, machine);
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

void check_schema(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kObject)
    throw Error(std::string(what) + " must be a JSON object");
  const JsonValue* schema = v.find("schema");
  if (schema == nullptr)
    throw Error(std::string(what) + " is missing 'schema'");
  const int version = json_int(*schema, "schema");
  if (version != kSearchOptionsSchema)
    throw Error("unsupported " + std::string(what) + " schema " +
                std::to_string(version) + " (this build speaks " +
                std::to_string(kSearchOptionsSchema) + ")");
}

}  // namespace

Aggregation parse_aggregation(const std::string& name) {
  if (name == "mean") return Aggregation::kMean;
  if (name == "median") return Aggregation::kMedian;
  if (name == "trimmed_mean") return Aggregation::kTrimmedMean;
  throw Error("unknown aggregation '" + name +
              "' (expected mean|median|trimmed_mean)");
}

std::string search_options_to_json(const SearchOptions& o) {
  JsonWriter out;
  out.begin_object().integer("schema", kSearchOptionsSchema);
  // A decimal string: JSON numbers lose precision past 2^53.
  out.str("seed", std::to_string(o.seed));
  out.integer("rotations", o.rotations).integer("repeats", o.repeats);
  out.num("budget", o.time_budget_s).integer("top_k", o.top_k);
  out.integer("final_repeats", o.final_repeats);
  out.str("objective", o.objective == Objective::kEnergy ? "energy" : "time");
  out.boolean("fallbacks", o.memory_fallbacks);
  out.boolean("distribution_strategies", o.search_distribution_strategies);
  out.boolean("prune", o.prune_candidates).begin_array("frozen");
  for (const TaskId t : o.frozen_tasks) out.integer(t.index());
  out.end_array().integer("max_retries", o.resilience.max_retries);
  out.integer("quarantine_after", o.resilience.quarantine_after);
  out.num("retry_backoff_s", o.resilience.retry_backoff_s);
  out.str("aggregation", aggregation_name(o.resilience.aggregation));
  out.integer("snapshot_every", o.journal_snapshot_every);
  return out.end_object().take();
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
      if (value.kind != JsonValue::Kind::kArray)
        throw Error("field 'frozen' must be an array");
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

void validate_search_options(const SearchOptions& o, std::size_t num_tasks) {
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw Error("invalid search options: " + what);
  };
  require(o.rotations > 0, "rotations must be positive");
  require(o.repeats > 0, "repeats must be positive");
  if (!(o.time_budget_s > 0.0)) {
    std::ostringstream os;
    os << "budget must be positive, got " << o.time_budget_s;
    require(false, os.str());
  }
  require(o.top_k > 0, "top_k must be positive");
  require(o.final_repeats > 0, "final_repeats must be positive");
  require(o.resilience.max_retries >= 0, "max_retries must be >= 0");
  require(o.resilience.quarantine_after >= 0,
          "quarantine_after must be >= 0");
  for (const TaskId t : o.frozen_tasks)
    require(t.index() < num_tasks,
            "frozen task " + std::to_string(t.index()) +
                " is not in the graph (" + std::to_string(num_tasks) +
                " tasks)");
}

std::string sim_options_to_json(const SimOptions& o) {
  JsonWriter out;
  out.begin_object().integer("schema", kSearchOptionsSchema);
  out.integer("iterations", o.iterations).num("noise_sigma", o.noise_sigma);
  out.num("fault_crash", o.faults.crash_prob);
  out.num("fault_straggler", o.faults.straggler_prob);
  out.num("fault_straggler_factor", o.faults.straggler_factor);
  out.num("fault_mem_pressure", o.faults.mem_pressure_prob);
  out.num("fault_mem_headroom", o.faults.mem_pressure_headroom);
  return out.num("fault_copy", o.faults.copy_fault_prob).end_object().take();
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
