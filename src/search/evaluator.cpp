#include "src/search/evaluator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/io/line_reader.hpp"
#include "src/report/journal.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"
#include "src/support/rng.hpp"

namespace automap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Domain-separation salts: search-time evaluation runs and finalist-protocol
// reruns of the same mapping must see independent noise streams.
constexpr std::uint64_t kEvalSalt = 0x5bf03635f0a5a1edULL;
constexpr std::uint64_t kFinalSalt = 0xa0761d6478bd642fULL;

/// Per Outcome, in its order: the word the journal and the checkpoint log
/// write, whether the candidate executed (every executed outcome also
/// counts as evaluated), and its own SearchStats count and metrics counter
/// (none for kEvaluated). The order is the counters' registration order,
/// which the metric snapshots keep.
struct OutcomeRow {
  const char* word;
  bool executed;
  std::size_t SearchStats::*count;
  const char* counter;
  const char* help;
};
constexpr OutcomeRow kOutcomes[] = {
    {"evaluated", true, nullptr, nullptr, nullptr},
    {"invalid", false, &SearchStats::invalid,
     "automap_candidates_invalid_total", "Candidates rejected as invalid"},
    {"oom", true, &SearchStats::oom, "automap_candidates_oom_total",
     "Candidates that ran out of memory"},
    {"censored", true, &SearchStats::censored,
     "automap_candidates_censored_total",
     "Candidates censored at their censor threshold"},
    {"cached", false, &SearchStats::cache_hits,
     "automap_candidates_cache_hits_total",
     "Candidates answered from the profiles database"},
    {"quarantined", true, &SearchStats::quarantined,
     "automap_candidates_quarantined_total",
     "Candidates quarantined by the resilience policy"},
};

const OutcomeRow& row_of(Outcome outcome) {
  return kOutcomes[static_cast<std::size_t>(outcome)];
}

/// The checkpoint header's lines after the algorithm label: everything
/// besides the proposals that decides a candidate's outcome. The budget is
/// rendered as infinity, so a budget-cut search can resume under a larger
/// budget.
std::array<std::pair<const char*, std::string>, 3> pinned_config(
    SearchOptions options, const SimOptions& sim) {
  options.time_budget_s = kInf;
  return {{{"options", search_options_to_json(options)},
           {"sim", sim_options_to_json(sim)},
           {"profiles_seed", hex_u64(hash_text(options.profiles_seed))}}};
}

std::uint64_t read_hash(const LineReader& reader, const std::string& token) {
  reader.expect(token.size() == 16 &&
                    token.find_first_not_of("0123456789abcdef") ==
                        std::string::npos,
                "expected a 16-digit hex mapping hash, got: " + token);
  return std::stoull(token, nullptr, 16);
}
}  // namespace

CheckpointLog read_checkpoint_log(const std::string& text,
                                  const SearchOptions& options,
                                  const SimOptions& sim) {
  std::istringstream is(text);
  LineReader reader(is);
  const std::string version = reader.tagged("automap-checkpoint", 1)[1];
  if (version != "3")
    reader.fail("unsupported checkpoint version " + version +
                " (this build reads version 3)");
  CheckpointLog log;
  log.algorithm = reader.tagged("algorithm", 1)[1];
  for (const auto& [tag, value] : pinned_config(options, sim))
    if (reader.tagged(tag, 1)[1] != value)
      reader.fail(std::string("this search's ") + tag +
                  " differ from the checkpoint's");
  std::vector<std::string> t;
  while (reader.next(t)) {
    reader.expect(t.size() == 6,
                  "expected: <hash> <status> <value> <charge> "
                  "<transient failures> <retries>");
    RunRecord run;
    run.hash = read_hash(reader, t[0]);
    const auto* row = std::find_if(
        std::begin(kOutcomes), std::end(kOutcomes),
        [&](const OutcomeRow& r) { return r.executed && t[1] == r.word; });
    reader.expect(row != std::end(kOutcomes), "unknown status: " + t[1]);
    run.status = static_cast<Outcome>(row - std::begin(kOutcomes));
    run.value = reader.to_double(t[2]);
    run.charge_s = reader.to_double(t[3]);
    reader.expect(!std::isnan(run.value) && std::isfinite(run.charge_s) &&
                      run.charge_s >= 0.0,
                  "expected a value and a finite, non-negative charge");
    run.transient_failures = static_cast<int>(reader.to_int(t[4], 0, INT_MAX));
    run.retries = static_cast<int>(reader.to_int(t[5], 0, INT_MAX));
    log.records.push_back(run);
  }
  // Every record ends in a newline: a last line without one was cut.
  reader.expect(text.back() == '\n', "checkpoint ends mid-record");
  return log;
}

Evaluator::Evaluator(const Simulator& sim, const SearchOptions& options)
    : sim_(sim), options_(options), best_seconds_(kInf),
      wall_start_(std::chrono::steady_clock::now()),
      line_slack_(sim.options().noise_sigma) {
  validate_search_options(options_, sim_.graph().num_tasks());
  if (!options_.profiles_seed.empty())
    import_profiles(options_.profiles_seed);

  for (const auto& [tag, value] : pinned_config(options_, sim_.options()))
    log_config_ += std::string(tag) + " " + value + "\n";
  keep_log_ =
      !options_.checkpoint_path.empty() || !options_.resume_state.empty();
  if (!options_.resume_state.empty()) {
    resumed_ =
        read_checkpoint_log(options_.resume_state, options_, sim_.options());
    // The log keeps every resumed record from the start, so a checkpoint
    // written while they replay never holds less than the resumed file.
    for (const RunRecord& run : resumed_.records) append_record(run);
  }

  // Observability handles. All instruments below are updated at fold time,
  // so they are deterministic and eligible for journal snapshots.
  journal_ = options_.journal;
  metrics_ = options_.metrics;
  if (metrics_) {
    m_suggested_ = metrics_->counter("automap_candidates_suggested_total",
                                     "Candidate mappings proposed");
    m_evaluated_ = metrics_->counter("automap_candidates_evaluated_total",
                                     "Candidate mappings executed");
    for (const OutcomeRow& row : kOutcomes)
      m_outcomes_.push_back(row.counter != nullptr
                                ? metrics_->counter(row.counter, row.help)
                                : nullptr);
    m_search_clock_ = metrics_->gauge("automap_search_clock_seconds",
                                      "Simulated search clock");
    m_best_seconds_ = metrics_->gauge("automap_best_seconds",
                                      "Incumbent objective value");
    m_candidate_mean_ = metrics_->histogram(
        "automap_candidate_mean_seconds",
        "Recorded candidate objective values (seconds)",
        {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
         300.0, 1000.0});
  }
}

std::uint64_t Evaluator::run_seed(std::uint64_t mapping_hash, int repeat,
                                  int attempt, std::uint64_t salt) const {
  // Order-independent derivation: a run's noise depends only on the search
  // seed, the candidate's structural hash, the repeat index and the retry
  // attempt — never on how many candidates were evaluated before it. A
  // cache hit, a resumed checkpoint or a pruned run therefore leaves every
  // later run's noise unchanged. Attempt 0 reproduces the historical
  // derivation exactly, so fault-free searches are bit-identical to builds
  // that predate the retry machinery.
  std::uint64_t s = mix64(options_.seed ^ salt);
  s = mix64(s ^ mapping_hash);
  if (attempt > 0)
    s = mix64(s ^
              (0x94d049bb133111ebULL * static_cast<std::uint64_t>(attempt)));
  return mix64(s +
               0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(repeat + 1));
}

double Evaluator::retry_backoff(int attempt) const {
  // Budget-aware backoff: each re-attempt charges the restart quantum,
  // doubled per attempt — a real fault-tolerant driver pays process respawn
  // and runtime re-initialization before every relaunch.
  const double quantum = options_.resilience.retry_backoff_s >= 0.0
                             ? options_.resilience.retry_backoff_s
                             : sim_.machine().restart_overhead();
  return quantum * static_cast<double>(1ULL << std::min(attempt, 62));
}

double Evaluator::aggregate_objective(double objective_sum, int survivors,
                                      std::vector<double>& objectives) const {
  AM_CHECK(survivors > 0, "aggregating a candidate with no survivors");
  const double n = static_cast<double>(survivors);
  switch (options_.resilience.aggregation) {
    case Aggregation::kMean:
      return objective_sum / n;
    case Aggregation::kMedian: {
      std::sort(objectives.begin(), objectives.end());
      const std::size_t m = objectives.size() / 2;
      return objectives.size() % 2 == 1
                 ? objectives[m]
                 : 0.5 * (objectives[m - 1] + objectives[m]);
    }
    case Aggregation::kTrimmedMean: {
      // Drop the single min and max; degenerates to the mean below three
      // survivors (nothing left to trim).
      if (survivors < 3) return objective_sum / n;
      const auto [lo, hi] =
          std::minmax_element(objectives.begin(), objectives.end());
      return (objective_sum - *lo - *hi) / (n - 2.0);
    }
  }
  AM_CHECK(false, "unknown aggregation");
  return kInf;
}

const ExecutionReport& Evaluator::run_repeat(const Mapping& candidate,
                                             std::uint64_t hash, int repeat,
                                             std::uint64_t salt,
                                             double bound_s, RunRecord& run) {
  for (int attempt = 0;; ++attempt) {
    const ExecutionReport& report = sim_.run_prepared(
        candidate, run_seed(hash, repeat, attempt, salt), scratch_, bound_s);
    // A prepared run fails only by an injected transient fault: the clock
    // pays for the partial run and the abort observation.
    if (report.ok) return report;
    ++run.transient_failures;
    run.charge_s += report.total_seconds + failure_observation_cost();
    if (attempt >= options_.resilience.max_retries) return report;
    ++run.retries;
    run.charge_s += retry_backoff(attempt);
  }
}

RunRecord Evaluator::run_candidate(const Mapping& candidate,
                                   std::uint64_t key, double threshold_s,
                                   bool bound_runs) {
  // The mean races its running sum against the censor threshold T: after
  // k completed runs the candidate is censored when the sum exceeds
  //
  //   B_k = min(k*T*(1 + 3*c/sqrt(k)),  repeats*T)
  //
  // The first term is a confidence line. Its slack c = line_slack_ is
  // min(sigma, max(3*cv, 0.001)), where cv is the sample coefficient of
  // variation of the start mapping's runs (begin_search measures it): the
  // line sits about nine estimated standard deviations of the sum above
  // k*T, so a candidate whose true mean is at most T rarely crosses it,
  // while one a few percent worse than T is cut after a run or two
  // instead of burning its full repeat budget. Until begin_search
  // measures, c is the per-event noise sigma itself, the line's widest
  // setting. The line is statistical; the second term is the exactness
  // cap: sum > repeats*T alone already proves mean > T, and because
  // B_repeats equals the cap, an *uncensored* candidate always has a
  // provably exact mean <= T (no false accepts at the last run). With
  // sigma = 0 the line collapses to k*T and the race is exact.
  //
  // The median of an odd repeat count races each run against T itself: a
  // median exceeds T exactly when a majority of the runs do, so the
  // candidate is censored once (repeats+1)/2 runs have crossed T, and the
  // race is exact at any sigma. A crossed run charges T and folds as
  // infinity: it sorts above every completed run (all <= T), so while the
  // crossed runs are a minority the middle value is the median of the
  // unbounded runs bit for bit.
  // An even count averages the two middle runs, and under fault injection
  // a lost repeat can move a crossed run into the middle, so both fold
  // unbounded, like the trimmed mean.
  //
  // Run r executes under a simulated-time bound of what the race leaves
  // (B_{r+1} - sum, or T), so with pruning on the simulator abandons the
  // run the moment the verdict is determined and the trailing repeats are
  // skipped. With pruning off the runs execute unbounded but the same
  // verdict and charge are computed from their totals (a post-censor run
  // charges and contributes nothing), so both modes produce the same
  // record bit for bit.
  RunRecord run{.hash = key};
  const auto fail = [&run](Outcome status) {
    run.status = status;
    run.value = kInf;
    return run;
  };
  // One validation + memory resolution serves every repeat: placement is
  // noise-independent, so begin_runs hoists it out of the repeat loop. A
  // failure here is an OOM (constraint-1 validity was already checked by
  // the caller), which surfaces before the event loop, so censoring never
  // masks it. It still costs some time to observe: the runtime aborts
  // during instance allocation.
  if (!sim_.begin_runs(candidate, plan_hash(candidate, key), scratch_)) {
    run.charge_s = failure_observation_cost();
    return fail(Outcome::kOom);
  }
  const ResiliencePolicy& policy = options_.resilience;
  const bool inject = sim_.options().faults.enabled();
  const bool robust = policy.aggregation != Aggregation::kMean;
  const bool median_race = policy.aggregation == Aggregation::kMedian &&
                           options_.repeats % 2 == 1 && !inject;
  const int majority = (options_.repeats + 1) / 2;
  const double repeats_d = static_cast<double>(options_.repeats);
  const double slack = 3.0 * line_slack_;
  double sum = 0.0;
  double objective_sum = 0.0;
  int survivors = 0;
  int crossed = 0;  // median race: runs past the threshold so far
  objectives_.clear();  // per survivor, robust aggregations only
  int consecutive_lost = 0;
  for (int r = 0; r < options_.repeats; ++r) {
    double allowance = kInf;  // what this run may add before censoring
    if (median_race) {
      allowance = threshold_s;
    } else if (!robust && std::isfinite(threshold_s)) {
      const double k = static_cast<double>(r + 1);
      const double line =
          std::min(k * threshold_s * (1.0 + slack / std::sqrt(k)),
                   repeats_d * threshold_s);
      allowance = line - sum;  // >= 0: the schedule is nondecreasing
    }
    // Under fault injection every run executes unbounded: a bounded abort
    // at the censor line would mask a crash draw the fault stream scheduled
    // past it, making prune on/off observably different. The censor
    // verdict is still computed from the totals below.
    const ExecutionReport& report =
        run_repeat(candidate, key, r, kEvalSalt,
                   (bound_runs && !inject) ? allowance : kInf, run);
    if (!report.ok) {
      // The retry budget ran out and the repeat is lost. Quarantine: the
      // candidate keeps failing under its whole retry budget; stop wasting
      // repeats and cache it as failed.
      ++consecutive_lost;
      if (policy.quarantine_after > 0 &&
          consecutive_lost >= policy.quarantine_after)
        return fail(Outcome::kQuarantined);
      continue;
    }
    consecutive_lost = 0;
    if (report.censored || report.total_seconds > allowance) {
      run.charge_s += allowance;
      if (median_race && ++crossed < majority) {
        objectives_.push_back(kInf);
        continue;
      }
      // Censor verdict: charge what the race allowed and stop. Every
      // remaining repeat would contribute nothing, so the historical
      // post-censor loop folds away. The value is exactly the threshold
      // (not budget/repeats, whose rounding could land one ulp below it
      // and leak past a caller's `mean < bound` acceptance test).
      run.status = Outcome::kCensored;
      run.value = threshold_s;
      return run;
    }
    const double objective = options_.objective == Objective::kEnergy
                                 ? report.energy_joules
                                 : report.total_seconds;
    objective_sum += objective;
    run.charge_s += report.total_seconds;
    sum += report.total_seconds;
    ++survivors;
    if (robust) objectives_.push_back(objective);
  }
  // Every repeat was lost to transient faults: quarantined whether or not
  // the consecutive-loss cutoff fired early. Fault draws come from a
  // derived stream, so re-executing under the same policy would lose the
  // same way — the cached failure is the honest answer.
  if (survivors == 0) return fail(Outcome::kQuarantined);
  run.value = aggregate_objective(objective_sum, survivors, objectives_);
  return run;
}

RunRecord Evaluator::next_replayed(std::uint64_t hash, double threshold_s) {
  const RunRecord& run = resumed_.records[replayed_++];
  const std::string where = "checkpoint record " + std::to_string(replayed_);
  if (run.hash != hash)
    throw Error(where + " ran mapping " + hex_u64(run.hash) +
                ", but the resumed search executes " + hex_u64(hash));
  if (run.status == Outcome::kCensored && run.value != threshold_s)
    throw Error(where + " was censored at " + json_double(run.value) +
                " s, but the resumed search censors at " +
                json_double(threshold_s) + " s");
  return run;
}

void Evaluator::append_record(const RunRecord& run) {
  char line[128];
  const int n = std::snprintf(
      line, sizeof line, "%016llx %s %.17g %.17g %d %d\n",
      static_cast<unsigned long long>(run.hash), row_of(run.status).word,
      run.value, run.charge_s, run.transient_failures, run.retries);
  log_.append(line, static_cast<std::size_t>(n));
}

std::string Evaluator::export_profiles() const {
  // Canonical order (sorted by structural hash): unordered_map iteration
  // varies between runs and library versions, and checkpoint/resume
  // bit-identity needs the exported bytes to be a pure function of the
  // database contents.
  std::vector<std::pair<std::uint64_t, const Entry*>> order;
  order.reserve(profiles_.size());
  for (const auto& [hash, entry] : profiles_) order.emplace_back(hash, &entry);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream os;
  os.precision(17);
  os << "profiles " << profiles_.size() << "\n";
  for (const auto& [hash, entry] : order) {
    os << "entry " << entry->mean_seconds;
    if (entry->censored) os << " censored";
    if (entry->quarantined) os << " quarantined";
    os << "\n" << entry->mapping.serialize();
  }
  return os.str();
}

void Evaluator::import_profiles(const std::string& text) {
  std::istringstream is(text);
  LineReader reader(is);
  const std::string entries = reader.tagged("profiles", 1)[1];
  const TaskGraph& graph = sim_.graph();
  std::vector<std::string> t;
  for (long long i = 0, n = reader.to_int(entries, 0); i < n; ++i) {
    if (!reader.next(t))
      reader.fail("profiles database ends after " + std::to_string(i) +
                  " of " + entries + " entries");
    // After the mean the line may carry a marker: "censored" (the stored
    // value is a bound the true mean exceeds) or "quarantined" (the
    // candidate failed its whole retry budget and is cached as
    // permanently failed).
    if (t[0] != "entry" || t.size() < 2 || t.size() > 3 ||
        (t.size() == 3 && t[2] != "censored" && t[2] != "quarantined"))
      reader.fail("expected: entry <mean> [censored|quarantined]");
    const double mean = reader.to_double(t[1]);
    const bool censored = t.size() == 3 && t[2] == "censored";
    const bool quarantined = t.size() == 3 && t[2] == "quarantined";
    Mapping mapping = Mapping::read(reader, graph);
    const std::uint64_t key = mapping.hash();
    if (mean < kInf && !censored) {
      // insert_top dedupes by hash, so importing the same database twice
      // (or re-importing after a search) does not stack duplicate
      // finalists. Censored entries stay out of the finalist list and the
      // incumbent — their stored value is a bound, not a mean.
      insert_top(mapping, key, mean);
      best_seconds_ = std::min(best_seconds_, mean);
    }
    profiles_.insert_or_assign(
        key, Entry{std::move(mapping), mean, censored, quarantined});
  }
  reader.expect(!reader.next(t),
                "profiles database holds more than " + entries + " entries");
}

void Evaluator::insert_top(const Mapping& mapping, std::uint64_t hash,
                           double mean) {
  for (const Finalist& f : top_)
    if (f.hash == hash && f.mapping == mapping) return;
  const auto pos = std::lower_bound(
      top_.begin(), top_.end(), mean,
      [](const Finalist& f, double v) { return f.mean_seconds < v; });
  top_.insert(pos, Finalist{mapping, hash, mean});
  if (top_.size() > static_cast<std::size_t>(options_.top_k))
    top_.pop_back();
}

std::uint64_t Evaluator::plan_hash(const Mapping& candidate,
                                   std::uint64_t key) const {
  return options_.memory_fallbacks ? candidate.hash() : key;
}

Mapping Evaluator::with_fallbacks(const Mapping& mapping) const {
  if (!options_.memory_fallbacks) return mapping;
  Mapping out = mapping;
  const MachineModel& machine = sim_.machine();
  for (const GroupTask& task : sim_.graph().tasks()) {
    const ProcKind proc = out.at(task.id).proc;
    // Addressable kinds from this task's processor, best bandwidth first.
    std::vector<MemKind> order = machine.memories_addressable_by(proc);
    std::sort(order.begin(), order.end(), [&](MemKind a, MemKind b) {
      return machine.affinity(proc, a).bandwidth_bytes_per_s >
             machine.affinity(proc, b).bandwidth_bytes_per_s;
    });
    for (MemPriority& priority : out.memories(task.id)) {
      if (priority.empty()) continue;
      const MemKind primary = priority.front();
      priority.assign(1, primary);
      for (const MemKind k : order)
        if (k != primary) priority.push_back(k);
    }
  }
  return out;
}

double Evaluator::censor_threshold(double interest_bound_s) const {
  if (options_.objective != Objective::kExecutionTime) return kInf;
  const double top_guard =
      top_.size() >= static_cast<std::size_t>(options_.top_k)
          ? top_.back().mean_seconds
          : kInf;
  return std::max(interest_bound_s, top_guard);
}

double Evaluator::evaluate(const Mapping& mapping, double threshold_s) {
  const std::uint64_t key = mapping.hash();
  ++stats_.suggested;

  // A cached entry answers the query unless it is censored at a bound
  // tighter than this threshold — then the caller needs the mean resolved
  // further and the candidate re-executes, overwriting the entry.
  const auto it = profiles_.find(key);
  const bool cached =
      it != profiles_.end() && it->second.mapping == mapping &&
      (!it->second.censored || it->second.mean_seconds >= threshold_s);
  Mapping extended;  // the fallback-extended copy, when one is needed
  if (!cached && options_.memory_fallbacks)
    extended = with_fallbacks(mapping);
  const Mapping& candidate = options_.memory_fallbacks ? extended : mapping;

  double mean;
  Outcome outcome;
  if (cached) {
    mean = it->second.mean_seconds;
    outcome = Outcome::kCached;
  } else if (!candidate.valid(sim_.graph(), sim_.machine())) {
    profiles_.insert_or_assign(key, Entry{mapping, kInf});
    mean = kInf;
    outcome = Outcome::kInvalid;
  } else {
    // A resumed search takes each executed candidate's outcome from its
    // log until the log is spent; from then on candidates simulate, and a
    // checkpointing search logs what they returned. The threshold — not the
    // prune flag — drives the censoring arithmetic; prune only decides
    // whether the simulator actually stops at the line.
    RunRecord run;
    if (replayed_ < resumed_.records.size()) {
      run = next_replayed(key, threshold_s);
    } else {
      run = run_candidate(
          candidate, key, threshold_s,
          options_.prune_candidates && std::isfinite(threshold_s));
      if (keep_log_) append_record(run);
    }
    stats_.transient_failures +=
        static_cast<std::size_t>(run.transient_failures);
    stats_.retries += static_cast<std::size_t>(run.retries);
    stats_.search_time_s += run.charge_s;
    stats_.evaluation_time_s += run.charge_s;
    mean = run.value;
    outcome = run.status;
    // A censored entry is re-executed only if a later evaluation needs it
    // resolved under a looser threshold; a quarantined one never is.
    profiles_.insert_or_assign(
        key, Entry{mapping, mean,
                   /*censored=*/outcome == Outcome::kCensored,
                   /*quarantined=*/outcome == Outcome::kQuarantined});
    // Censored, failed and quarantined candidates never update the
    // incumbent, trajectory or finalist list.
    if (outcome == Outcome::kEvaluated) {
      if (mean < best_seconds_) {
        best_seconds_ = mean;
        trajectory_.push_back({stats_.search_time_s, mean});
        if (journal_) {
          // 1:1 with trajectory points — the replay drift check and the
          // Chrome-trace search row both reconstruct the Fig. 9 curve
          // from these.
          journal_->event("incumbent")
              .num("clock", stats_.search_time_s)
              .num("best", mean)
              .integer("seq", static_cast<long long>(stats_.suggested));
        }
      }
      // Maintain the top-k list for the finalist protocol.
      if (mean < kInf) insert_top(mapping, key, mean);
    }
  }
  const OutcomeRow& row = row_of(outcome);
  if (row.executed) ++stats_.evaluated;
  if (row.count != nullptr) ++(stats_.*row.count);

  if (journal_ || metrics_) journal_candidate(outcome, mean, key);
  return mean;
}

void Evaluator::journal_candidate(Outcome outcome, double mean,
                                  std::uint64_t hash) {
  const OutcomeRow& row = row_of(outcome);
  if (metrics_) {
    m_suggested_->inc();
    if (row.executed) m_evaluated_->inc();
    if (Counter* own = m_outcomes_[static_cast<std::size_t>(outcome)])
      own->inc();
    m_search_clock_->set(stats_.search_time_s);
    if (std::isfinite(best_seconds_)) m_best_seconds_->set(best_seconds_);
    if (std::isfinite(mean)) m_candidate_mean_->observe(mean);
  }
  if (journal_) {
    journal_->event("candidate")
        .integer("seq", static_cast<long long>(stats_.suggested))
        .str("status", row.word)
        .num("mean", mean)
        .num("clock", stats_.search_time_s)
        .str("hash", hex_u64(hash));
    journal_metrics_snapshot(/*force=*/false);
  }
}

void Evaluator::journal_metrics_snapshot(bool force) {
  if (!journal_ || !metrics_) return;
  if (!force) {
    if (options_.journal_snapshot_every <= 0) return;
    if (++folds_since_snapshot_ < options_.journal_snapshot_every) return;
  }
  folds_since_snapshot_ = 0;
  // Only deterministic instruments appear in the snapshot — raw simulator
  // run counts differ with pruning on and off (bounded runs abort early)
  // and would break the journal's byte-identity.
  journal_->event("metrics")
      .num("clock", stats_.search_time_s)
      .raw("values", metrics_->snapshot_json());
}

void Evaluator::begin_search(std::string_view label, const Mapping& start,
                             bool custom_start) {
  if (!options_.resume_state.empty() && resumed_.algorithm != label)
    throw Error("checkpoint was written by " + resumed_.algorithm +
                ", cannot resume as " + std::string(label));
  label_ = label;
  calibrate_line(start);
  if (!journal_) return;
  // Everything that determines the deterministic outcome is recorded via
  // the canonical codec — the same encoding the CLI's --options file and
  // the service wire protocol speak.
  journal_->event("search_begin")
      .str("algorithm", label)
      .raw("options", search_options_to_json(options_))
      .raw("sim", sim_options_to_json(sim_.options()))
      .str("start", start.serialize())
      .boolean("custom_start", custom_start)
      .boolean("resumed", !options_.resume_state.empty())
      .boolean("seeded_profiles", !options_.profiles_seed.empty());
}

void Evaluator::calibrate_line(const Mapping& start) {
  const double sigma = sim_.options().noise_sigma;
  if (options_.resilience.aggregation != Aggregation::kMean ||
      options_.objective != Objective::kExecutionTime || sigma <= 0.0 ||
      options_.repeats < 2)
    return;
  // The start's own evaluation runs, with its plan, seeds and retries. They
  // are not charged: evaluating the start charges them, and a cached or
  // replayed start costs wall time only.
  const Mapping candidate = with_fallbacks(start);
  const std::uint64_t key = start.hash();
  if (!sim_.begin_runs(candidate, plan_hash(candidate, key), scratch_))
    return;  // invalid or out of memory
  std::vector<double> totals;
  RunRecord uncharged;
  for (int r = 0; r < options_.repeats; ++r) {
    const ExecutionReport& report =
        run_repeat(candidate, key, r, kEvalSalt, kInf, uncharged);
    if (report.ok) totals.push_back(report.total_seconds);
  }
  if (totals.size() < 2) return;
  const double n = static_cast<double>(totals.size());
  double mean = 0.0;
  for (const double t : totals) mean += t;
  mean /= n;
  double squares = 0.0;
  for (const double t : totals) squares += (t - mean) * (t - mean);
  const double cv = std::sqrt(squares / (n - 1.0)) / mean;
  line_slack_ = std::min(sigma, std::max(3.0 * cv, 0.001));
}

void Evaluator::charge_overhead(double seconds) {
  AM_REQUIRE(seconds >= 0.0, "negative overhead");
  stats_.search_time_s += seconds;
}

double Evaluator::failure_observation_cost() const {
  // The runtime walks every task's dependence analysis and instance
  // allocation before the OOM aborts the run — one runtime-overhead
  // quantum per task, independent of how far the allocation pass got.
  return sim_.machine().runtime_overhead() *
         static_cast<double>(sim_.graph().num_tasks());
}

void Evaluator::note_rotation(int rotation, double best_before_s) {
  stats_.rotations.push_back({.rotation = rotation,
                              .best_before_s = best_before_s,
                              .best_after_s = best_seconds_,
                              .evaluated = stats_.evaluated,
                              .search_time_s = stats_.search_time_s});
  if (journal_) {
    journal_->event("rotation_end")
        .num("before", best_before_s)
        .num("after", best_seconds_)
        .integer("evaluated", static_cast<long long>(stats_.evaluated))
        .num("clock", stats_.search_time_s);
    journal_metrics_snapshot(/*force=*/true);
  }
}

bool Evaluator::budget_exhausted() const {
  return cancelled() || stats_.search_time_s >= options_.time_budget_s;
}

bool Evaluator::cancelled() const {
  return options_.cancel && options_.cancel();
}

void Evaluator::mark_degraded() {
  stats_.degraded = true;
  if (journal_) journal_->event("degraded");
}

std::string Evaluator::serialize_state() const {
  return "automap-checkpoint 3\nalgorithm " + label_ + "\n" + log_config_ +
         log_;
}

const Mapping& Evaluator::best() const {
  AM_REQUIRE(!top_.empty(), "no successful evaluation yet");
  return top_.front().mapping;
}

SearchResult Evaluator::finalize() {
  SearchResult result;
  result.algorithm = label_;
  // The finalist protocol runs outside any rotation/coordinate scope.
  if (journal_) journal_->clear_cursor();

  // Cancellation cuts the finalist protocol too: the caller is about to
  // discard the result, so rerunning top-k x final_repeats would only
  // delay the cancel landing. The incumbent (when any) comes back as a
  // partial result with no finalize journal record. Budget exhaustion
  // alone does NOT take this path — a budget-cut search still verifies
  // its finalists exactly as before, preserving byte-identity.
  const bool cut = cancelled();

  // Nothing to verify: every candidate the search executed ran out of
  // memory or lost its repeats to injected faults, or was invalid.
  if (!cut && top_.empty())
    throw Error("finalist protocol found no executable mapping: no "
                "candidate completed a run (" +
                std::to_string(stats_.evaluated) + " executed: " +
                std::to_string(stats_.oom) + " out of memory, " +
                std::to_string(stats_.quarantined) +
                " quarantined after repeated transient faults; " +
                std::to_string(stats_.invalid) + " invalid)");

  const int repeats = options_.final_repeats;
  const bool robust = options_.resilience.aggregation != Aggregation::kMean;
  double best_final = kInf;
  for (std::size_t e = 0; !cut && e < top_.size(); ++e) {
    // The mapping each rerun simulates, and the one the result returns.
    const Mapping candidate = with_fallbacks(top_[e].mapping);
    const std::uint64_t hash = top_[e].hash;
    double sum = 0.0;
    int ok_runs = 0;
    objectives_.clear();  // per survivor, robust aggregations only
    // Finalist reruns are never bounded: the protocol's whole point is an
    // exact mean over the top-k, and top-k entries are never censored. A
    // finalist that cannot be placed (OOM) can never complete, so it is
    // excluded after one observation cost, the historical exclusion rule.
    const bool excluded =
        !sim_.begin_runs(candidate, plan_hash(candidate, hash), scratch_);
    if (excluded) {
      stats_.search_time_s += failure_observation_cost();
      stats_.evaluation_time_s += failure_observation_cost();
    }
    for (int r = 0; !excluded && r < repeats; ++r) {
      RunRecord lost;  // this repeat's lost attempts and their charge
      const ExecutionReport& report =
          run_repeat(candidate, hash, r, kFinalSalt, kInf, lost);
      stats_.search_time_s += lost.charge_s;
      stats_.evaluation_time_s += lost.charge_s;
      stats_.transient_failures +=
          static_cast<std::size_t>(lost.transient_failures);
      stats_.retries += static_cast<std::size_t>(lost.retries);
      if (!report.ok) continue;  // retry budget spent: repeat lost
      const double objective = options_.objective == Objective::kEnergy
                                   ? report.energy_joules
                                   : report.total_seconds;
      sum += objective;
      stats_.search_time_s += report.total_seconds;
      stats_.evaluation_time_s += report.total_seconds;
      ++ok_runs;
      if (robust) objectives_.push_back(objective);
    }
    // A finalist scores when a strict majority of its repeats survived —
    // fault-free that is all of them, reproducing the historical
    // ok_runs == repeats rule bit for bit.
    double final_mean = kInf;
    if (!excluded && ok_runs * 2 > repeats) {
      final_mean = aggregate_objective(sum, ok_runs, objectives_);
      if (final_mean < best_final) {
        best_final = final_mean;
        result.best = candidate;
      }
    }
    if (journal_) {
      journal_->event("finalist")
          .integer("rank", static_cast<long long>(e))
          .str("hash", hex_u64(hash))
          .boolean("excluded", excluded)
          .integer("ok_runs", ok_runs)
          .num("mean", final_mean)
          .num("clock", stats_.search_time_s);
    }
  }
  if (best_final < kInf) {
    result.best_seconds = best_final;
  } else if (!top_.empty()) {
    // Cancelled, or graceful degradation: the fault rate left every
    // finalist unprofilable. Return the best-known incumbent, flagged
    // degraded unless the search was cancelled.
    if (!cut) stats_.degraded = true;
    result.best = with_fallbacks(top_.front().mapping);
    result.best_seconds = top_.front().mean_seconds;
  }
  stats_.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start_)
                           .count();
  result.stats = stats_;
  result.trajectory = trajectory_;
  if (!cut) {
    if (options_.export_profiles_db) result.profiles_db = export_profiles();
    if (metrics_) {
      m_search_clock_->set(stats_.search_time_s);
      if (std::isfinite(result.best_seconds))
        m_best_seconds_->set(result.best_seconds);
    }
    if (journal_) {
      journal_metrics_snapshot(/*force=*/true);
      journal_->event("finalize")
          .str("algorithm", result.algorithm)
          .num("best", result.best_seconds)
          .boolean("degraded", stats_.degraded)
          .integer("suggested", static_cast<long long>(stats_.suggested))
          .integer("evaluated", static_cast<long long>(stats_.evaluated))
          .integer("censored", static_cast<long long>(stats_.censored))
          .num("clock", stats_.search_time_s)
          .str("winner", result.best.serialize());
    }
  }
  if (journal_) journal_->flush();
  return result;
}

}  // namespace automap
