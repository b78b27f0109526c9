#pragma once

// Candidate-mapping evaluator with a profiles database and a batch
// evaluation engine.
//
// This is AutoMap's driver-side measurement machinery (§3, Figure 4): every
// candidate is executed `repeats` times and the mean is recorded; results
// are cached in the profiles database so re-suggested mappings cost nothing
// (the gap between "suggested" and "evaluated" counts in §5.3). Search time
// is accounted in *simulated* seconds — the sum of the candidate runs'
// execution times plus any per-suggestion algorithm overhead — so that the
// Fig. 9 time axis reflects what a real deployment would pay.
//
// Candidate execution dominates search cost (§5.3: 99 % for CCD/CD), and
// Simulator::run is const and seed-parameterized, so the candidates of a
// batch are embarrassingly parallel. evaluate_batch fans them out across a
// thread pool (SearchOptions::threads) and folds results back serially in
// submission order. Every run's noise seed is *derived* from (search seed,
// mapping hash, repeat index) instead of drawn from a shared sequential
// generator, so a run's result does not depend on which thread executed it
// or how many candidates preceded it — the folded statistics, trajectory,
// top-k list and profiles database are bit-identical for every thread
// count, including the serial path.
//
// Incumbent-bounded pruning (SearchOptions::prune_candidates): most
// candidates a hill-climbing search proposes are worse than the incumbent,
// and simulating them to completion only confirms that. evaluate_batch
// fixes a censor threshold T at batch submission — the larger of the
// caller's interest bound and the current k-th best finalist mean — and
// races every executed candidate against it: after k runs the candidate is
// *censored* once its running sum crosses a noise-aware confidence line
// (capped at repeats x T, at which point mean > T is proven outright), and
// each run simulates under a time bound of whatever the line leaves. A
// censored candidate folds to exactly T, is recorded in the profiles
// database with a censored flag (re-executed only if a later batch needs
// it resolved under a looser threshold), and never enters the trajectory
// or the top-k list; an uncensored candidate's mean is exact and provably
// at most T. The censoring arithmetic runs in both modes; the prune flag
// only decides whether the simulator aborts at the line or burns real time
// past it — so results stay bit-identical with pruning on or off, at any
// thread count. The search clock is charged the simulated seconds actually
// consumed up to the line (the cost a real bounded deployment would pay).

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/thread_pool.hpp"

namespace automap {

class Counter;
class EvaluatorView;
class Gauge;
class Histogram;
class Journal;
class LineReader;
class MetricsRegistry;

class Evaluator {
 public:
  Evaluator(const Simulator& sim, const SearchOptions& options);

  /// Proposes a mapping for evaluation. Returns its mean execution time in
  /// seconds; infinity when the mapping is invalid (constraint 1) or runs
  /// out of memory. Cached mappings return instantly without re-execution.
  /// Equivalent to a one-element evaluate_batch.
  ///
  /// `interest_bound_s` declares how slow a candidate may be and still be
  /// useful to the caller (typically the caller's incumbent mean): a
  /// candidate whose mean provably exceeds both the bound and the k-th
  /// finalist mean is censored and returns the censor threshold instead of
  /// an exact mean. Pass infinity (the default) when the exact value
  /// matters — e.g. to seed an incumbent, or for simulated annealing's
  /// acceptance probabilities.
  double evaluate(const Mapping& mapping,
                  double interest_bound_s =
                      std::numeric_limits<double>::infinity());

  /// Batch entry point: pre-executes every not-yet-cached candidate across
  /// the thread pool (one budgeted run sequence per candidate), then folds
  /// results back in submission order, replicating evaluate() exactly — a
  /// candidate sees cache entries created by earlier batch members, and
  /// folding stops once the simulated budget is exhausted (a serial loop
  /// would not have proposed the remaining candidates). The censor
  /// threshold derived from `interest_bound_s` is fixed once at submission,
  /// before any run executes, so it cannot depend on fold order or thread
  /// count. After each fold, `consume(index, mean)` is invoked; returning
  /// false stops the batch and discards the unfolded tail entirely (no
  /// statistics, cache or clock effects), which lets greedy-sequential
  /// searches speculate over candidates whose construction depends on
  /// earlier outcomes. Returns the number of candidates folded.
  std::size_t evaluate_batch(
      std::span<const Mapping> mappings,
      const std::function<bool(std::size_t, double)>& consume,
      double interest_bound_s = std::numeric_limits<double>::infinity());

  /// Convenience overload folding the whole batch (budget permitting):
  /// returns the means of the folded prefix; the result is shorter than
  /// `mappings` iff the budget ran out mid-batch.
  std::vector<double> evaluate_batch(
      std::span<const Mapping> mappings,
      double interest_bound_s = std::numeric_limits<double>::infinity());

  /// Charges algorithm-side overhead (e.g. the ensemble tuner's proposal
  /// machinery) to the search clock without touching evaluation counters.
  void charge_overhead(double seconds);

  /// Records one completed CCD/CD rotation in the telemetry: the best mean
  /// before the rotation vs now, plus the cumulative counters. Deterministic
  /// given the folded statistics, so thread-count invariance is preserved.
  void note_rotation(int rotation, double best_before_s);

  /// True once the simulated search clock passed the configured budget —
  /// or the SearchOptions::cancel token fired (cancellation is delivered
  /// as a budget cut, so every algorithm's existing budget checks double
  /// as cancellation points).
  [[nodiscard]] bool budget_exhausted() const;

  /// True iff the SearchOptions::cancel token is set and fired. Callers
  /// that must distinguish a cancel from a genuine budget cut (e.g. the
  /// service discarding a cancelled job's result) ask this directly.
  [[nodiscard]] bool cancelled() const;

  /// The finalist protocol (§5): re-runs the top-k mappings
  /// `final_repeats` times each (fanned across the pool) and returns the
  /// fastest, charging the reruns to the search clock.
  [[nodiscard]] SearchResult finalize(std::string algorithm_name);

  /// Read-only accessors (best/stats/trajectory/profiles export) live on
  /// EvaluatorView; pass a view to reporting code instead of the mutating
  /// evaluator.
  [[nodiscard]] EvaluatorView view() const;

  /// If memory_fallbacks is on, returns a copy of `mapping` whose argument
  /// priority lists are extended with the remaining addressable memory
  /// kinds in decreasing bandwidth order (§3.1). Otherwise returns the
  /// mapping unchanged.
  [[nodiscard]] Mapping with_fallbacks(const Mapping& mapping) const;

  /// Seeds the database from a previous export. Entries must match the
  /// simulator's graph shape; throws Error on malformed text. Imported
  /// entries do not count as suggested/evaluated.
  void import_profiles(const std::string& text);

  /// Marks the search result degraded (SearchStats::degraded): the caller
  /// determined the fault rate makes further progress unprofilable and is
  /// returning the best-known incumbent instead of throwing.
  void mark_degraded();

  /// Emits the journal's `search_begin` record for this search: the
  /// algorithm label, the full (options, simulator) configuration that
  /// determines the deterministic outcome — everything except the thread
  /// count, which by contract changes nothing — and the serialized starting
  /// mapping. Algorithms call this once before their first proposal; no-op
  /// when no journal is configured.
  void journal_search_begin(std::string_view label, const Mapping& start,
                            bool custom_start = false);

  /// The journal configured in SearchOptions (null when disabled) — the
  /// algorithms emit their own structural events (moves, constraint edges,
  /// rotations) through this.
  [[nodiscard]] Journal* journal() const { return journal_; }

  /// Serializes the evaluator's full mutable state — counters, clock,
  /// trajectory, top-k list, profiles database — for the checkpoint file.
  /// Deterministic (entries sorted by structural hash), so a resumed search
  /// exports a byte-identical profiles database.
  [[nodiscard]] std::string serialize_state() const;
  /// Restores state serialized by serialize_state. Must be called on a
  /// freshly constructed evaluator (before any proposal); throws Error on
  /// malformed text. The wall-clock anchor restarts at zero — wall_time_s
  /// is explicitly excluded from determinism guarantees.
  void restore_state(const std::string& text);
  /// Same, from a reader positioned at the state (checkpoints embed it
  /// after their own header and mapping); reads to the end of input.
  void restore_state(LineReader& reader);

 private:
  friend class EvaluatorView;

  struct Entry {
    Mapping mapping;
    double mean_seconds;
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
  /// Result of one pre-executed simulated run, reduced to what folding
  /// needs (full ExecutionReports would hold per-task vectors per run).
  struct RunOutcome {
    bool ok = false;
    double objective = 0.0;
    double total_seconds = 0.0;
    /// The run's failure (ok == false) was a transient injected fault and
    /// its retry budget is exhausted — the repeat is lost, but the finalist
    /// is not excluded outright the way a deterministic failure excludes.
    bool transient = false;
    /// Simulated seconds consumed by this run *beyond* total_seconds: lost
    /// attempts, retry backoff, and failure observation cost. Charged to
    /// the search clock by the fold; zero in fault-free operation for ok
    /// runs (for failed runs it carries failure_observation_cost(), which
    /// the fold previously added at the call site).
    double charge_s = 0.0;
    int transient_failures = 0;
    int retries = 0;
  };
  /// Result of one candidate's budgeted run sequence.
  struct CandOutcome {
    bool oom = false;
    /// The candidate exhausted its simulated-seconds budget: its true mean
    /// provably exceeds the batch's censor threshold.
    bool censored = false;
    /// Every repeat was lost to transient faults (retries exhausted); the
    /// candidate folds to infinity.
    bool failed = false;
    /// failed via quarantine_after consecutive lost repeats — the candidate
    /// is additionally cached so it is never proposed for execution again.
    bool quarantined = false;
    /// Sum of the objective over the completed (uncensored) runs; unused
    /// when censored or oom.
    double objective_sum = 0.0;
    /// Simulated seconds to charge to the search clock: the full run
    /// totals, clipped at the budget, plus fault losses and retry backoff.
    /// Independent of prune_candidates by construction.
    double charge_s = 0.0;
    /// Repeats that produced a valid observation (== repeats fault-free).
    int survivors = 0;
    int transient_failures = 0;
    int retries = 0;
    /// Per-survivor objective values, recorded only under the robust
    /// aggregations (the mean needs just the sum).
    std::vector<double> objectives;
  };

  /// Deterministic per-(candidate, repeat, attempt) noise seed — the scheme
  /// that makes parallel evaluation order-independent. Attempt 0 is the
  /// original derivation; retries (attempt > 0) mix in the attempt index so
  /// each re-execution sees fresh noise and fresh fault draws.
  [[nodiscard]] std::uint64_t run_seed(std::uint64_t mapping_hash,
                                       int repeat, int attempt,
                                       std::uint64_t salt) const;
  /// Retry backoff charged for attempt `attempt` (0-based): the policy's
  /// quantum (or the machine's restart_overhead) doubled per attempt.
  [[nodiscard]] double retry_backoff(int attempt) const;
  /// Folds a candidate's surviving repeats into one recorded value per the
  /// configured Aggregation. For kMean this is objective_sum / survivors —
  /// bit-identical to the historical objective_sum / repeats when nothing
  /// was lost.
  [[nodiscard]] double aggregate_objective(const CandOutcome& out) const;
  /// Executes one unbounded finalist-protocol run (retrying transient
  /// faults under the resilience policy) and reduces it to a RunOutcome.
  [[nodiscard]] RunOutcome execute_run(const Mapping& candidate,
                                       std::uint64_t hash, int repeat,
                                       SimScratch& scratch) const;
  /// Executes one candidate's `repeats` runs as a race against the censor
  /// threshold: after k runs the candidate is censored once its running sum
  /// crosses a noise-aware confidence line (capped at repeats x threshold,
  /// the exactness bound), and run k executes under a simulated-time bound
  /// of whatever the line leaves. The censoring decision, charge and
  /// objective sum are pure functions of the unbounded run totals and the
  /// threshold, so prune (`bound_runs`) on and off produce identical
  /// outcomes — pruning only skips the simulation work past the line.
  [[nodiscard]] CandOutcome run_candidate(const Mapping& candidate,
                                          std::uint64_t key,
                                          double threshold_s,
                                          bool bound_runs,
                                          SimScratch& scratch) const;
  /// Simulated cost of observing a failed (OOM) evaluation: the runtime
  /// still performs dependence analysis and instance allocation for every
  /// task before aborting, so each failure charges one runtime-overhead
  /// quantum per task to the search clock.
  [[nodiscard]] double failure_observation_cost() const;
  /// Inserts into the top-k finalist list unless an entry with the same
  /// structural hash and mapping is already present (dedupe on import).
  void insert_top(const Mapping& mapping, double mean);
  /// Shared core of import_profiles and restore_state: reads a profiles
  /// section to the end of input. When `update_top` is false the top-k
  /// list and incumbent are left untouched (restore_state rebuilds them
  /// verbatim from the checkpoint's own section to preserve tie order).
  void import_profiles_impl(LineReader& reader, bool update_top);
  /// Serializes the profiles database (every measured mapping with its
  /// mean) for reuse via SearchOptions::profiles_seed.
  [[nodiscard]] std::string export_profiles() const;

  /// Emits one fold-side `candidate` journal event and updates the
  /// per-candidate metrics. `status` is one of evaluated / cached /
  /// invalid / oom / censored / quarantined. Serial fold side only.
  void journal_candidate(const char* status, double mean,
                         std::uint64_t hash);
  /// Appends a deterministic metrics snapshot to the journal when the
  /// snapshot cadence is due (or `force` is set).
  void journal_metrics_snapshot(bool force);

  const Simulator& sim_;
  SearchOptions options_;
  /// Pool owned by this evaluator (null when options_.threads == 1 or a
  /// shared pool was injected); `pool_` is the one actually used — the
  /// owned pool, the injected SearchOptions::shared_pool, or null for the
  /// zero-synchronization serial path.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// One simulation arena per pool lane (index 0 doubles as the serial
  /// path's arena); lanes are exclusive within a parallel_for, so each
  /// arena is touched by one run at a time.
  std::vector<SimScratch> scratches_;
  std::unordered_map<std::uint64_t, Entry> profiles_;
  std::vector<Entry> top_;  // sorted ascending by mean, at most top_k
  double best_seconds_;
  SearchStats stats_;
  std::vector<TrajectoryPoint> trajectory_;
  /// Wall-clock anchor for SearchStats::wall_time_s (simulated vs real).
  std::chrono::steady_clock::time_point wall_start_;

  // Observability handles, cached at construction from SearchOptions
  // (all null when the corresponding facility is disabled). Every update
  // happens on the serial fold side, preserving thread-count invariance.
  Journal* journal_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* m_suggested_ = nullptr;
  Counter* m_evaluated_ = nullptr;
  Counter* m_invalid_ = nullptr;
  Counter* m_oom_ = nullptr;
  Counter* m_censored_ = nullptr;
  Counter* m_cache_hits_ = nullptr;
  Counter* m_quarantined_ = nullptr;
  Gauge* m_search_clock_ = nullptr;
  Gauge* m_best_seconds_ = nullptr;
  Histogram* m_candidate_mean_ = nullptr;
  /// Folds since the last journal metrics snapshot (cadence counter).
  int folds_since_snapshot_ = 0;
};

/// Read-only window onto an Evaluator for reporting and analysis code: the
/// best mapping so far, counters, the Fig. 9 trajectory and the profiles
/// database export — none of the propose/charge/finalize machinery. Cheap
/// to copy; valid as long as the evaluator it views.
class EvaluatorView {
 public:
  explicit EvaluatorView(const Evaluator& eval) : eval_(&eval) {}

  /// Best mapping so far and its (search-time) mean.
  [[nodiscard]] const Mapping& best() const;
  [[nodiscard]] double best_seconds() const { return eval_->best_seconds_; }
  [[nodiscard]] bool has_best() const { return !eval_->top_.empty(); }

  [[nodiscard]] const SearchStats& stats() const { return eval_->stats_; }
  [[nodiscard]] const std::vector<TrajectoryPoint>& trajectory() const {
    return eval_->trajectory_;
  }

  /// Serialized profiles database for SearchOptions::profiles_seed.
  [[nodiscard]] std::string export_profiles() const {
    return eval_->export_profiles();
  }

 private:
  const Evaluator* eval_;
};

inline EvaluatorView Evaluator::view() const { return EvaluatorView(*this); }

}  // namespace automap
