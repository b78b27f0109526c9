#pragma once

// Candidate-mapping evaluator with a profiles database.
//
// This is AutoMap's driver-side measurement machinery (§3, Figure 4): every
// candidate is executed `repeats` times and the mean is recorded; results
// are cached in the profiles database so re-suggested mappings cost nothing
// (the gap between "suggested" and "evaluated" counts in §5.3). Search time
// is accounted in *simulated* seconds — the sum of the candidate runs'
// execution times plus any per-suggestion algorithm overhead — so that the
// Fig. 9 time axis reflects what a real deployment would pay.
//
// Candidate execution dominates search cost (§5.3: 99 % for CCD/CD).
// evaluate runs one candidate on the calling thread and folds its result
// before it returns, the paper's TestMapping. Every run's noise seed is
// *derived* from (search seed, mapping hash, repeat index) instead of drawn
// from a shared sequential generator, so a run's result does not depend on
// how many candidates preceded it — which keeps cache hits, checkpoint
// resume and pruning on/off bit-identical.
//
// Checkpoint resume (SearchOptions::checkpoint_path / resume_state): a
// candidate's outcome is a pure function of its mapping and the censor
// threshold it was evaluated under, so a checkpoint is a log of what each
// executed candidate returned — no mappings, no snapshot of this state. A
// resumed search restarts its algorithm from the first proposal and, for
// each candidate that would execute, takes the next logged outcome instead
// of simulating; once the log is spent it runs live. The one fold below
// builds the counters, clock, top-k list, trajectory, journal and metrics
// either way.
//
// Incumbent-bounded pruning (SearchOptions::prune_candidates): most
// candidates a hill-climbing search proposes are worse than the incumbent,
// and simulating them to completion only confirms that. The caller holds a
// censor threshold T — censor_threshold(incumbent), the larger of its
// interest bound and the current k-th best finalist mean, re-derived when
// the incumbent changes — and evaluate races the candidate against it:
// after k runs the candidate is *censored* once its running sum crosses a
// confidence line calibrated to the start mapping's run-to-run spread
// (capped at repeats x T, at which point mean > T is proven outright), and
// each run simulates under a time bound of whatever the line leaves. The
// median of an odd repeat count races each run against T and censors once
// a majority crossed, at which point median > T is proven outright. A
// censored candidate folds to exactly T, is recorded in the profiles
// database with a censored flag (re-executed only if a later evaluation
// needs it resolved under a looser threshold), and never enters the
// trajectory or the top-k list; an uncensored candidate's value is exact
// and provably at most T. The censoring arithmetic runs in both modes; the
// prune flag only decides whether the simulator aborts at the line or
// burns real time past it — so results stay bit-identical with pruning on
// or off. The search clock is charged the simulated seconds
// actually consumed up to the line (the cost a real bounded deployment
// would pay).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {

class Counter;
class Gauge;
class Histogram;
class Journal;
class MetricsRegistry;

/// What one proposal came to. An executed candidate is evaluated, out of
/// memory, censored or quarantined; a cached or invalid one runs nothing.
/// One table in evaluator.cpp gives each outcome its journal and
/// checkpoint word, its SearchStats count and its metrics counter.
enum class Outcome {
  kEvaluated,
  kInvalid,
  kOom,
  kCensored,
  kCached,
  kQuarantined,
};

/// One candidate a search executed, as its checkpoint log records it: what
/// the fold needs, keyed by the mapping's structural hash instead of the
/// mapping itself.
struct RunRecord {
  std::uint64_t hash = 0;
  /// One of the four executed outcomes.
  Outcome status = Outcome::kEvaluated;
  /// The folded value: the aggregated objective, the censor threshold the
  /// candidate was evaluated under (censored), or infinity (oom,
  /// quarantined).
  double value = 0.0;
  /// Simulated seconds charged to the search clock: the run totals up to
  /// the censor line, fault losses, retry backoff and an OOM's observation
  /// cost. Independent of prune_candidates by construction.
  double charge_s = 0.0;
  int transient_failures = 0;
  int retries = 0;
};

/// A parsed checkpoint log (docs/file_formats.md, "Checkpoint").
struct CheckpointLog {
  std::string algorithm;
  std::vector<RunRecord> records;
};

/// Parses a checkpoint log and checks that its header pins the
/// configuration of `options` and `sim` — the budget aside, so a budget-cut
/// search can resume under a larger one. Throws Error naming the line on a
/// malformed log, a version other than 3 or a configuration mismatch. The
/// algorithm label is returned, not checked: Evaluator::begin_search checks
/// it, and the mapping service vets a job's checkpoint, label included,
/// with this function before resuming it.
[[nodiscard]] CheckpointLog read_checkpoint_log(const std::string& text,
                                                const SearchOptions& options,
                                                const SimOptions& sim);

class Evaluator {
 public:
  Evaluator(const Simulator& sim, const SearchOptions& options);

  /// The censor threshold for a caller whose interest ends at
  /// `interest_bound_s` (typically its incumbent mean): a candidate is worth
  /// resolving exactly only if its mean could still beat the bound *or*
  /// displace the k-th finalist (the finalist protocol reruns the top k, so
  /// finalist-grade means must stay exact even when the caller's incumbent
  /// is tighter). Returns max(bound, k-th finalist mean); infinity while
  /// the top-k list is not full, and always under Objective::kEnergy,
  /// whose values the time-based race cannot bound.
  [[nodiscard]] double censor_threshold(double interest_bound_s) const;

  /// Proposes a mapping for evaluation (the paper's TestMapping) and folds
  /// the outcome. Returns its mean execution time in seconds; infinity when
  /// the mapping is invalid (constraint 1), runs out of memory or is
  /// quarantined. Cached mappings return instantly without re-execution.
  ///
  /// A candidate whose mean provably exceeds `threshold_s` is censored and
  /// returns exactly `threshold_s`. Pass censor_threshold(bound) to prune
  /// against an incumbent, or infinity (the default) when the exact value
  /// matters — e.g. to seed an incumbent, or for simulated annealing's
  /// acceptance probabilities. Never checks the budget: a search checks
  /// budget_exhausted() before it proposes.
  double evaluate(const Mapping& mapping,
                  double threshold_s =
                      std::numeric_limits<double>::infinity());

  /// Charges algorithm-side overhead (e.g. the ensemble tuner's proposal
  /// machinery) to the search clock without touching evaluation counters.
  void charge_overhead(double seconds);

  /// Records one completed CCD/CD rotation in the telemetry: the best mean
  /// before the rotation vs now, plus the cumulative counters. Deterministic
  /// given the folded statistics.
  void note_rotation(int rotation, double best_before_s);

  /// True once the simulated search clock passed the configured budget —
  /// or the SearchOptions::cancel predicate fired (cancellation is delivered
  /// as a budget cut, so every algorithm's existing budget checks double
  /// as cancellation points).
  [[nodiscard]] bool budget_exhausted() const;

  /// True iff the SearchOptions::cancel predicate is set and fired. Callers
  /// that must distinguish a cancel from a genuine budget cut (e.g. the
  /// service discarding a cancelled job's result) ask this directly.
  [[nodiscard]] bool cancelled() const;

  /// The finalist protocol (§5): re-runs the top-k mappings
  /// `final_repeats` times each and returns the fastest, as it ran (with
  /// its priority lists under memory_fallbacks) and labelled as
  /// begin_search pinned, charging the reruns to the search clock. Throws
  /// Error naming the failures when no candidate completed a run, so there
  /// is nothing to rerun.
  [[nodiscard]] SearchResult finalize();

  /// Best mapping so far and its (search-time) mean.
  [[nodiscard]] const Mapping& best() const;
  [[nodiscard]] double best_seconds() const { return best_seconds_; }
  [[nodiscard]] bool has_best() const { return !top_.empty(); }

  [[nodiscard]] const SearchStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<TrajectoryPoint>& trajectory() const {
    return trajectory_;
  }

  /// Serializes the profiles database (every measured mapping with its
  /// mean) for reuse via SearchOptions::profiles_seed.
  [[nodiscard]] std::string export_profiles() const;

  /// If memory_fallbacks is on, returns a copy of `mapping` whose argument
  /// priority lists are extended with the remaining addressable memory
  /// kinds in decreasing bandwidth order (§3.1): the mapping every
  /// candidate runs as. Otherwise returns the mapping unchanged.
  [[nodiscard]] Mapping with_fallbacks(const Mapping& mapping) const;

  /// Seeds the database from a previous export. Entries must match the
  /// simulator's graph shape; throws Error on malformed text. Imported
  /// entries do not count as suggested/evaluated.
  void import_profiles(const std::string& text);

  /// Marks the search result degraded (SearchStats::degraded): the caller
  /// determined the fault rate makes further progress unprofilable and is
  /// returning the best-known incumbent instead of throwing.
  void mark_degraded();

  /// Algorithms call this once before their first proposal. It pins the
  /// algorithm label that the checkpoint log records and finalize returns
  /// — a resumed log must carry the same label, or this throws Error —
  /// keeps `start`, whose measured run-to-run spread calibrates the mean's
  /// censor line before the first live candidate that races a finite
  /// threshold (calibrate_line; fresh and resumed searches measure alike),
  /// and emits the journal's `search_begin` record: the label, the full
  /// (options, simulator) configuration that determines the deterministic
  /// outcome, and the serialized starting mapping.
  void begin_search(std::string_view label, const Mapping& start);

  /// The journal configured in SearchOptions (null when disabled) — the
  /// algorithms emit their own structural events (moves, constraint edges,
  /// rotations) through this.
  [[nodiscard]] Journal* journal() const { return journal_; }

  /// Renders the checkpoint log: a header pinning the label and the
  /// configuration, then one line per candidate run_candidate executed
  /// (docs/file_formats.md, "Checkpoint"). The records are kept only when
  /// the search checkpoints or resumes; otherwise the log is the header.
  [[nodiscard]] std::string serialize_state() const;

 private:
  /// One profiles-database entry, keyed by Mapping::key(); `mapping` ==
  /// is the collision check.
  struct Entry {
    Mapping mapping;
    /// mapping.hash(): a cache hit journals it without rehashing, and the
    /// export orders entries by it.
    std::uint64_t hash = 0;
    double mean_seconds = 0.0;
    /// True when mean_seconds is a censored observation: the candidate's
    /// true mean provably exceeds the stored value (the censor threshold
    /// in force when it was recorded) but was never resolved exactly. A
    /// censored entry answers any query whose threshold is at most the
    /// stored value; a looser query re-executes and overwrites it.
    bool censored = false;
    /// True when the candidate was quarantined by the resilience policy:
    /// it failed quarantine_after consecutive repeats (retries included)
    /// and is cached as failed (mean infinity) — never re-run under this
    /// search. Mutually exclusive with censored.
    bool quarantined = false;
  };
  /// A top-k finalist with the hash it was inserted under.
  struct Finalist {
    Mapping mapping;
    std::uint64_t hash = 0;
    double mean_seconds = 0.0;
  };
  /// Deterministic per-(candidate, repeat, attempt) noise seed — the scheme
  /// that makes a run's noise independent of evaluation order. Attempt 0 is
  /// the original derivation; retries (attempt > 0) mix in the attempt index
  /// so each re-execution sees fresh noise and fresh fault draws.
  [[nodiscard]] std::uint64_t run_seed(std::uint64_t mapping_hash,
                                       int repeat, int attempt,
                                       std::uint64_t salt) const;
  /// Retry backoff charged for attempt `attempt` (0-based): the policy's
  /// quantum (or the machine's restart_overhead) doubled per attempt.
  [[nodiscard]] double retry_backoff(int attempt) const;
  /// Folds a candidate's surviving repeats into one recorded value per the
  /// configured Aggregation. For kMean this is objective_sum / survivors —
  /// bit-identical to the historical objective_sum / repeats when nothing
  /// was lost. `objectives` holds every survivor's value under the robust
  /// aggregations (the mean needs just the sum), plus an infinity per run
  /// the median race saw cross the threshold; it is sorted in place.
  [[nodiscard]] double aggregate_objective(
      double objective_sum, int survivors,
      std::vector<double>& objectives) const;
  /// Runs repeat `repeat` of the candidate prepared by the last begin_runs
  /// under `bound_s`, retrying injected transient faults under the
  /// resilience policy. Each lost attempt adds its partial run, failure
  /// observation and backoff to `run.charge_s` and its counts to `run`;
  /// the returned report's own run is left to the caller to charge. A
  /// prepared run fails only by an injected fault, so a report that is not
  /// ok means the retry budget ran out and the repeat is lost.
  const ExecutionReport& run_repeat(const Mapping& candidate,
                                    std::uint64_t hash, int repeat,
                                    std::uint64_t salt, double bound_s,
                                    RunRecord& run);
  /// Executes one candidate's `repeats` runs as a race against the censor
  /// threshold. Under the mean, after k runs the candidate is censored once
  /// its running sum crosses a confidence line set by line_slack_ (capped
  /// at repeats x threshold, the exactness bound), and run k executes under
  /// a simulated-time bound of whatever the line leaves. Under the median of
  /// an odd repeat count without fault injection, every run executes under
  /// the threshold itself and the candidate is censored once a majority of
  /// them crossed it. The censoring decision, charge and fold are pure
  /// functions of the unbounded run totals and the threshold, so prune
  /// (`bound_runs`) on and off produce identical outcomes — pruning only
  /// skips the simulation work past the bound.
  [[nodiscard]] RunRecord run_candidate(const Mapping& candidate,
                                        std::uint64_t hash, double threshold_s,
                                        bool bound_runs);
  /// The next record of the log being resumed, checked against the
  /// candidate the search executes now: the mapping hash must match, and a
  /// censored record must carry the threshold it is evaluated under now.
  /// Throws Error naming the record otherwise.
  [[nodiscard]] RunRecord next_replayed(std::uint64_t hash,
                                        double threshold_s);
  /// Sets line_slack_ to min(sigma, max(3 x cv, 0.001)), where cv is the
  /// sample coefficient of variation of the completed evaluation runs of
  /// line_start_, re-run here uncharged, and clears line_start_. Only the
  /// mean's time race uses the line, so it measures only under the mean,
  /// the execution-time objective, sigma > 0 and repeats >= 2, and keeps
  /// sigma when fewer than two runs complete. cv is a pure function of the
  /// start, the seed and the simulator options, so when it is measured
  /// changes no result.
  void calibrate_line();
  /// Appends `run` to the checkpoint log as one line.
  void append_record(const RunRecord& run);
  /// Simulated cost of observing a failed (OOM) evaluation: the runtime
  /// still performs dependence analysis and instance allocation for every
  /// task before aborting, so each failure charges one runtime-overhead
  /// quantum per task to the search clock.
  [[nodiscard]] double failure_observation_cost() const;
  /// The hash begin_runs seeds `candidate`'s runs with, where `hash` is the
  /// proposed mapping's: the plan hash seeds the noise and fault streams of
  /// the mapping actually simulated, which under memory_fallbacks is the
  /// fallback-extended copy.
  [[nodiscard]] std::uint64_t plan_hash(const Mapping& candidate,
                                        std::uint64_t hash) const;
  /// Records `mapping`'s outcome in the profiles database under `key`
  /// (mapping.key()), replacing any entry there in its storage.
  void record_profile(std::uint64_t key, const Mapping& mapping,
                      std::uint64_t hash, double mean, Outcome outcome);
  /// Inserts into the top-k finalist list unless an entry with the same
  /// structural hash and mapping is already present (dedupe on import).
  /// `hash` is mapping.hash(), which the entry keeps.
  void insert_top(const Mapping& mapping, std::uint64_t hash, double mean);

  /// Emits one fold-side `candidate` journal event and updates the
  /// per-candidate metrics. Serial fold side only.
  void journal_candidate(Outcome outcome, double mean, std::uint64_t hash);
  /// Appends a deterministic metrics snapshot to the journal when the
  /// snapshot cadence is due (or `force` is set).
  void journal_metrics_snapshot(bool force);

  const Simulator& sim_;
  SearchOptions options_;
  /// Reusable simulation arena shared by every run, so steady-state
  /// evaluation allocates nothing.
  SimScratch scratch_;
  /// One candidate's per-run values under the robust aggregations, reused
  /// by every candidate and finalist so a repeat allocates nothing.
  std::vector<double> objectives_;
  std::unordered_map<std::uint64_t, Entry> profiles_;  // by Mapping::key()
  std::vector<Finalist> top_;  // sorted ascending by mean, at most top_k
  double best_seconds_;
  SearchStats stats_;
  std::vector<TrajectoryPoint> trajectory_;
  /// Wall-clock anchor for SearchStats::wall_time_s (simulated vs real).
  std::chrono::steady_clock::time_point wall_start_;
  /// The slack c of the mean's censor line (run_candidate): the noise
  /// sigma until calibrate_line measures the start mapping's spread.
  double line_slack_;
  /// The start begin_search saw, until calibrate_line measures it.
  std::optional<Mapping> line_start_;

  // Observability handles, cached at construction from SearchOptions
  // (all null when the corresponding facility is disabled). Every update
  // happens at fold time, so the values are deterministic.
  Journal* journal_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* m_suggested_ = nullptr;
  Counter* m_evaluated_ = nullptr;
  /// Each outcome's own counter, by Outcome (null for kEvaluated, which
  /// m_evaluated_ counts with the other executed outcomes).
  std::vector<Counter*> m_outcomes_;
  Gauge* m_search_clock_ = nullptr;
  Gauge* m_best_seconds_ = nullptr;
  Histogram* m_candidate_mean_ = nullptr;
  /// Folds since the last journal metrics snapshot (cadence counter).
  int folds_since_snapshot_ = 0;

  // Checkpoint log (serialize_state). The header's configuration lines are
  // rendered once; the label arrives with begin_search.
  std::string log_config_;
  std::string label_;
  /// Whether run_candidate's records are appended to log_: only when the
  /// search checkpoints or resumes.
  bool keep_log_ = false;
  std::string log_;
  /// The log being resumed; evaluate consumes its records in order before
  /// it simulates anything.
  CheckpointLog resumed_;
  std::size_t replayed_ = 0;
};

}  // namespace automap
