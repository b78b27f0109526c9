#include "src/search/algorithms.hpp"

#include "src/search/coordinate_descent.hpp"
#include "src/search/ensemble_tuner.hpp"
#include "src/search/extra_algorithms.hpp"

namespace automap {

const std::vector<SearchAlgorithmInfo>& search_algorithms() {
  static const std::vector<SearchAlgorithmInfo> registry = {
      {"ccd", "AM-CCD", "constrained coordinate-wise descent (paper default)",
       run_ccd},
      {"cd", "AM-CD", "plain coordinate-wise descent", run_cd},
      {"ot", "AM-OT", "OpenTuner-style ensemble tuner", run_ensemble_tuner},
      {"random", "AM-Random", "uniform random sampling of valid mappings",
       run_random_search},
      {"anneal", "AM-Anneal", "simulated annealing over valid mappings",
       run_simulated_annealing},
      {"heft", "HEFT-static", "HEFT-style static list scheduler (no search)",
       run_heft_static},
      {"multistart", "AM-CCD-multistart",
       "CCD from the default plus random starting points",
       run_ccd_multistart},
  };
  return registry;
}

const SearchAlgorithmInfo* find_search_algorithm(std::string_view name) {
  for (const SearchAlgorithmInfo& info : search_algorithms())
    if (info.name == name) return &info;
  return nullptr;
}

std::string search_algorithm_names() {
  std::string names;
  for (const SearchAlgorithmInfo& info : search_algorithms()) {
    if (!names.empty()) names += '|';
    names += info.name;
  }
  return names;
}

}  // namespace automap
