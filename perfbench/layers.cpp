#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "perfbench.hpp"
#include "src/apps/registry.hpp"
#include "src/automap/automap.hpp"
#include "src/io/text_io.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/evaluator.hpp"
#include "src/support/durable.hpp"
#include "src/support/json.hpp"

namespace perfbench {

using namespace automap;

namespace {

double default_mapper_seconds(const Simulator& sim) {
  const Mapping mapping = DefaultMapper().map_all(sim.graph(), sim.machine());
  const double seconds =
      measure_mapping(sim, mapping, kMeasureRepeats, kMeasureSeed);
  if (!std::isfinite(seconds))
    throw std::runtime_error("the DefaultMapper mapping fails to run");
  return seconds;
}

}  // namespace

AppInputs::AppInputs(const std::string& app, MetricsRegistry* metrics)
    : machine_text(machine_to_string(make_shepard(1))),
      graph_text(task_graph_to_string(make_app_by_name(app, 1, 0).graph)),
      machine(machine_from_string(machine_text)),
      graph(task_graph_from_string(graph_text)),
      sim(machine, graph, SimOptions{.metrics = metrics}),
      default_s(default_mapper_seconds(sim)) {}

void check_mapping(const AppInputs& in, const Mapping& mapping,
                   const std::string& what, CheckFailures& failures) {
  const std::vector<std::string> violations =
      mapping.violations(in.graph, in.machine);
  if (!violations.empty()) {
    failures.push_back(what + ": mapping violates a constraint: " +
                       violations.front());
    return;
  }
  SimScratch scratch;
  if (!in.sim.begin_runs(mapping, scratch))
    failures.push_back(what + ": mapping does not fit in memory");
}

double speedup_vs_default(const AppInputs& in, const Mapping& mapping) {
  return in.default_s /
         measure_mapping(in.sim, mapping, kMeasureRepeats, kMeasureSeed);
}

void probe_persistence(const AppInputs& in, const std::string& profiles_db,
                       const std::string& dir, SpanRecorder& spans) {
  Evaluator evaluator(in.sim, SearchOptions{.threads = 1});
  evaluator.import_profiles(profiles_db);
  std::string state;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    SpanRecorder::Scope span(spans, "probe.serialize_state");
    state = evaluator.serialize_state();
    span.set_work(state.size());
  }
  const std::string path = dir + "/probe.checkpoint";
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    SpanRecorder::Scope span(spans, "probe.durable.save");
    save_checksummed(path, state, "checkpoint");
    span.set_work(state.size());
  }
  std::filesystem::remove(path);
}

void probe_parsing(const std::string& request_json, const AppInputs& in,
                   SpanRecorder& spans) {
  constexpr int kRepeats = 21;
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      SpanRecorder::Scope span(spans, "probe.json.parse");
      (void)parse_json(request_json);
    }
    {
      SpanRecorder::Scope span(spans, "probe.io.graph_parse");
      (void)task_graph_from_string(in.graph_text);
    }
    {
      SpanRecorder::Scope span(spans, "probe.io.machine_parse");
      (void)machine_from_string(in.machine_text);
    }
  }
}

std::string submit_request(const AppInputs& in, const SearchOptions& options) {
  return "{\"op\":\"submit\",\"machine\":\"" + json_escape(in.machine_text) +
         "\",\"graph\":\"" + json_escape(in.graph_text) +
         "\",\"options\":" + search_options_to_json(options) + "}";
}

}  // namespace perfbench
