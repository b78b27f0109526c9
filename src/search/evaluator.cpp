#include "src/search/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <exception>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>

#include "src/io/line_reader.hpp"
#include "src/report/journal.hpp"
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
}  // namespace

Evaluator::Evaluator(const Simulator& sim, const SearchOptions& options)
    : sim_(sim), options_(options), best_seconds_(kInf),
      wall_start_(std::chrono::steady_clock::now()) {
  AM_REQUIRE(options_.repeats > 0, "repeats must be positive");
  AM_REQUIRE(options_.rotations > 0, "rotations must be positive");
  AM_REQUIRE(options_.top_k > 0, "top_k must be positive");
  AM_REQUIRE(options_.threads >= 0, "threads must be >= 0");
  AM_REQUIRE(options_.resilience.max_retries >= 0,
             "max_retries must be >= 0");
  AM_REQUIRE(options_.resilience.quarantine_after >= 0,
             "quarantine_after must be >= 0");
  if (options_.shared_pool != nullptr) {
    // Service mode: batches ride an externally owned pool shared with
    // other concurrent searches; `threads` is ignored for pool sizing.
    if (options_.shared_pool->thread_count() > 1)
      pool_ = options_.shared_pool;
  } else {
    const int threads = options_.threads == 0
                            ? ThreadPool::hardware_threads()
                            : options_.threads;
    if (threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(threads);
      pool_ = owned_pool_.get();
    }
  }
  // One reusable simulation arena per pool lane (lane 0 doubles as the
  // serial path's arena), so steady-state evaluation allocates nothing.
  scratches_.resize(
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1);
  if (!options_.profiles_seed.empty())
    import_profiles(options_.profiles_seed);

  // Observability handles. All instruments below are updated exclusively
  // on the serial fold side, so they are deterministic (thread-count
  // invariant) and eligible for journal snapshots.
  journal_ = options_.journal;
  metrics_ = options_.metrics;
  if (metrics_) {
    m_suggested_ = metrics_->counter("automap_candidates_suggested_total",
                                     "Candidate mappings proposed");
    m_evaluated_ = metrics_->counter("automap_candidates_evaluated_total",
                                     "Candidate mappings executed");
    m_invalid_ = metrics_->counter("automap_candidates_invalid_total",
                                   "Candidates rejected as invalid");
    m_oom_ = metrics_->counter("automap_candidates_oom_total",
                               "Candidates that ran out of memory");
    m_censored_ =
        metrics_->counter("automap_candidates_censored_total",
                          "Candidates censored at the batch threshold");
    m_cache_hits_ = metrics_->counter(
        "automap_candidates_cache_hits_total",
        "Candidates answered from the profiles database");
    m_quarantined_ =
        metrics_->counter("automap_candidates_quarantined_total",
                          "Candidates quarantined by the resilience policy");
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
  // attempt — never on how many candidates were evaluated before it or on
  // which thread it ran. Attempt 0 reproduces the historical derivation
  // exactly, so fault-free searches are bit-identical to builds that
  // predate the retry machinery.
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

double Evaluator::aggregate_objective(const CandOutcome& out) const {
  AM_CHECK(out.survivors > 0, "aggregating a candidate with no survivors");
  const double n = static_cast<double>(out.survivors);
  switch (options_.resilience.aggregation) {
    case Aggregation::kMean:
      return out.objective_sum / n;
    case Aggregation::kMedian: {
      std::vector<double> v = out.objectives;
      std::sort(v.begin(), v.end());
      const std::size_t m = v.size() / 2;
      return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    }
    case Aggregation::kTrimmedMean: {
      // Drop the single min and max; degenerates to the mean below three
      // survivors (nothing left to trim).
      if (out.survivors < 3) return out.objective_sum / n;
      const auto [lo, hi] =
          std::minmax_element(out.objectives.begin(), out.objectives.end());
      return (out.objective_sum - *lo - *hi) / (n - 2.0);
    }
  }
  AM_CHECK(false, "unknown aggregation");
  return kInf;
}

Evaluator::RunOutcome Evaluator::execute_run(const Mapping& candidate,
                                             std::uint64_t hash, int repeat,
                                             SimScratch& scratch) const {
  // Finalist reruns are never bounded: the protocol's whole point is an
  // exact mean over the top-k, and top-k entries are never censored.
  // Transient faults retry under the same policy as search-time evaluation;
  // all clock costs beyond a successful run's own time ride in charge_s so
  // the fold stays a pure accumulation.
  RunOutcome out;
  if (!sim_.begin_runs(candidate, scratch)) {
    // Deterministic failure (OOM): one observation cost, same as the
    // search loop charges.
    out.charge_s += failure_observation_cost();
    return out;
  }
  for (int attempt = 0;; ++attempt) {
    const ExecutionReport& report = sim_.run_prepared(
        candidate, run_seed(hash, repeat, attempt, kFinalSalt), scratch,
        kInf);
    if (report.ok) {
      out.ok = true;
      out.objective = options_.objective == Objective::kEnergy
                          ? report.energy_joules
                          : report.total_seconds;
      out.total_seconds = report.total_seconds;
      return out;
    }
    // Injected transient fault (a prepared run fails no other way): the
    // clock paid for the partial run and the abort observation.
    ++out.transient_failures;
    out.charge_s += report.total_seconds + failure_observation_cost();
    if (attempt >= options_.resilience.max_retries) {
      out.transient = true;  // repeat lost, retry budget exhausted
      return out;
    }
    ++out.retries;
    out.charge_s += retry_backoff(attempt);
  }
}

Evaluator::CandOutcome Evaluator::run_candidate(const Mapping& candidate,
                                                std::uint64_t key,
                                                double threshold_s,
                                                bool bound_runs,
                                                SimScratch& scratch) const {
  // Racing schedule against the censor threshold T: after k completed runs
  // the candidate is censored when its running sum exceeds
  //
  //   B_k = min(k*T*(1 + 3*sigma/sqrt(k)),  repeats*T)
  //
  // The first term is a confidence line — a candidate whose true mean is
  // at most T crosses it with probability ~Phi(-3) per prefix under the
  // simulator's log-normal per-run noise, so real improvements survive
  // while a candidate 2x worse than the incumbent is cut after a single
  // run instead of burning its full repeat budget. The second term is the
  // exactness cap: sum > repeats*T alone already proves mean > T, and
  // because B_repeats equals the cap, an *uncensored* candidate always has
  // a provably exact mean <= T (no false accepts at the last run). With
  // sigma = 0 the line collapses to k*T and the race is exact.
  //
  // Run r executes under a simulated-time bound of B_{r+1} - sum, so with
  // pruning on the simulator abandons the run the moment the verdict is
  // determined and the trailing repeats are skipped. With pruning off the
  // runs execute unbounded but the same verdict and charge are computed
  // from their totals (a post-censor run charges and contributes nothing),
  // so both modes produce the same CandOutcome bit for bit.
  CandOutcome out;
  // One validation + memory resolution serves every repeat: placement is
  // noise-independent, so begin_runs hoists it out of the repeat loop. A
  // failure here is an OOM (constraint-1 validity was already checked at
  // plan time).
  if (!sim_.begin_runs(candidate, scratch)) {
    out.oom = true;
    return out;
  }
  const ResiliencePolicy& policy = options_.resilience;
  const bool inject = sim_.options().faults.enabled();
  const bool robust = policy.aggregation != Aggregation::kMean;
  // The censoring race bounds the running *sum*, which only the mean can
  // interpret; the robust aggregations need every survivor's value, so
  // censoring is disabled for them (every repeat runs to completion).
  const double race_threshold_s = robust ? kInf : threshold_s;
  const double repeats_d = static_cast<double>(options_.repeats);
  const double slack = 3.0 * sim_.options().noise_sigma;
  double sum = 0.0;
  int consecutive_lost = 0;
  for (int r = 0; r < options_.repeats; ++r) {
    double allowance = kInf;  // what this run may add before censoring
    if (std::isfinite(race_threshold_s)) {
      const double k = static_cast<double>(r + 1);
      const double line =
          std::min(k * race_threshold_s * (1.0 + slack / std::sqrt(k)),
                   repeats_d * race_threshold_s);
      allowance = line - sum;  // >= 0: the schedule is nondecreasing
    }
    bool repeat_lost = false;
    for (int attempt = 0;; ++attempt) {
      // Under fault injection every run executes unbounded: a bounded
      // abort at the censor line would mask a crash draw the fault stream
      // scheduled past it, making prune on/off observably different. The
      // censor verdict is still computed from the totals below.
      const ExecutionReport& report = sim_.run_prepared(
          candidate, run_seed(key, r, attempt, kEvalSalt), scratch,
          (bound_runs && !inject) ? allowance : kInf);
      if (report.ok) {
        if (report.censored || report.total_seconds > allowance) {
          // Censor verdict: charge what the line allowed and stop. Every
          // remaining repeat would see a zero allowance and contribute
          // nothing, so the historical post-censor loop folds away.
          out.charge_s += allowance;
          out.censored = true;
          return out;
        }
        const double objective = options_.objective == Objective::kEnergy
                                     ? report.energy_joules
                                     : report.total_seconds;
        out.objective_sum += objective;
        out.charge_s += report.total_seconds;
        sum += report.total_seconds;
        ++out.survivors;
        if (robust) out.objectives.push_back(objective);
        break;
      }
      if (!report.transient) {
        out.oom = true;
        return out;
      }
      // Injected transient fault: the clock paid for the partial run and
      // the abort observation.
      ++out.transient_failures;
      out.charge_s += report.total_seconds + failure_observation_cost();
      if (attempt >= policy.max_retries) {
        repeat_lost = true;  // retry budget exhausted
        break;
      }
      ++out.retries;
      out.charge_s += retry_backoff(attempt);
    }
    if (repeat_lost) {
      ++consecutive_lost;
      if (policy.quarantine_after > 0 &&
          consecutive_lost >= policy.quarantine_after) {
        // Quarantine: the candidate keeps failing under its whole retry
        // budget; stop wasting repeats and cache it as failed.
        out.failed = true;
        out.quarantined = true;
        return out;
      }
    } else {
      consecutive_lost = 0;
    }
  }
  if (out.survivors == 0) out.failed = true;
  return out;
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
  import_profiles_impl(reader, /*update_top=*/true);
}

void Evaluator::import_profiles_impl(LineReader& reader, bool update_top) {
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
    if (update_top && mean < kInf && !censored) {
      // insert_top dedupes by hash, so importing the same database twice
      // (or re-importing after a search) does not stack duplicate
      // finalists. Censored entries stay out of the finalist list and the
      // incumbent — their stored value is a bound, not a mean. (During a
      // checkpoint restore the top-k list is restored verbatim from its
      // own section instead — re-deriving it here could break mean ties in
      // a different order than the original chronological insertions.)
      insert_top(mapping, mean);
      best_seconds_ = std::min(best_seconds_, mean);
    }
    profiles_.insert_or_assign(
        key, Entry{std::move(mapping), mean, censored, quarantined});
  }
  reader.expect(!reader.next(t),
                "profiles database holds more than " + entries + " entries");
}

void Evaluator::insert_top(const Mapping& mapping, double mean) {
  const std::uint64_t key = mapping.hash();
  for (const Entry& e : top_)
    if (e.mapping.hash() == key && e.mapping == mapping) return;
  const auto pos = std::lower_bound(
      top_.begin(), top_.end(), mean,
      [](const Entry& e, double v) { return e.mean_seconds < v; });
  top_.insert(pos, Entry{mapping, mean});
  if (top_.size() > static_cast<std::size_t>(options_.top_k))
    top_.pop_back();
}

Mapping Evaluator::with_fallbacks(const Mapping& mapping) const {
  if (!options_.memory_fallbacks) return mapping;
  Mapping out = mapping;
  const MachineModel& machine = sim_.machine();
  for (const GroupTask& task : sim_.graph().tasks()) {
    TaskMapping& tm = out.at(task.id);
    // Addressable kinds from this task's processor, best bandwidth first.
    std::vector<MemKind> order = machine.memories_addressable_by(tm.proc);
    std::sort(order.begin(), order.end(), [&](MemKind a, MemKind b) {
      return machine.affinity(tm.proc, a).bandwidth_bytes_per_s >
             machine.affinity(tm.proc, b).bandwidth_bytes_per_s;
    });
    for (auto& priority : tm.arg_memories) {
      if (priority.empty()) continue;
      const MemKind primary = priority.front();
      priority.assign(1, primary);
      for (const MemKind k : order)
        if (k != primary) priority.push_back(k);
    }
  }
  return out;
}

double Evaluator::evaluate(const Mapping& mapping, double interest_bound_s) {
  double mean = kInf;
  (void)evaluate_batch(
      std::span<const Mapping>(&mapping, 1),
      [&](std::size_t, double value) {
        mean = value;
        return true;
      },
      interest_bound_s);
  return mean;
}

std::vector<double> Evaluator::evaluate_batch(
    std::span<const Mapping> mappings, double interest_bound_s) {
  std::vector<double> means;
  means.reserve(mappings.size());
  (void)evaluate_batch(
      mappings,
      [&](std::size_t, double value) {
        means.push_back(value);
        return true;
      },
      interest_bound_s);
  return means;
}

std::size_t Evaluator::evaluate_batch(
    std::span<const Mapping> mappings,
    const std::function<bool(std::size_t, double)>& consume,
    double interest_bound_s) {
  // Censor threshold, fixed once at submission so it cannot depend on fold
  // order or thread count: a candidate is only worth resolving exactly if
  // its mean could still beat the caller's interest bound *or* displace the
  // k-th finalist (run_ccd_multistart re-imports the database across
  // passes, so finalist-grade means must stay exact even when the caller's
  // incumbent is tighter). The threshold — not the prune flag — drives the
  // censoring arithmetic; prune only decides whether the simulator actually
  // stops at the budget.
  double threshold = kInf;
  if (options_.objective == Objective::kExecutionTime) {
    const double top_guard =
        top_.size() >= static_cast<std::size_t>(options_.top_k)
            ? top_.back().mean_seconds
            : kInf;
    threshold = std::max(interest_bound_s, top_guard);
  }
  const bool bound_runs =
      options_.prune_candidates && std::isfinite(threshold);

  // Per-candidate plan. Exactly one of three shapes:
  //  * deferred-to-cache: a usable profiles entry (or an earlier batch
  //    member equal to this mapping, which will have inserted its entry by
  //    the time this one folds) already answers it;
  //  * invalid: fails constraint 1, folds to infinity without execution;
  //  * execute: one budgeted run sequence with derived seeds.
  struct Plan {
    std::uint64_t key = 0;
    bool invalid = false;
    bool execute = false;
    /// Candidate to execute: points at the submitted mapping, or at
    /// `storage` when memory fallbacks extended it. Stable because `plans`
    /// is sized once up front.
    const Mapping* cand = nullptr;
    Mapping storage;          // owns the fallback-extended copy, when any
    std::size_t outcome = 0;  // index into exec_plans/outcomes, when execute
  };

  std::vector<Plan> plans(mappings.size());
  std::vector<std::size_t> exec_plans;  // batch indices of execute plans
  // key -> batch member that will own the profiles entry for that hash at
  // fold time (serial insertion order: the latest scheduled one wins).
  std::unordered_map<std::uint64_t, std::size_t> planned;

  for (std::size_t j = 0; j < mappings.size(); ++j) {
    const Mapping& mapping = mappings[j];
    Plan& plan = plans[j];
    plan.key = mapping.hash();

    if (const auto pit = planned.find(plan.key);
        pit != planned.end() && mappings[pit->second] == mapping) {
      continue;  // deferred: an earlier batch member folds this entry
    }
    // A cached entry answers the query unless it is censored at a bound
    // tighter than this batch's threshold — then the caller needs the mean
    // resolved further and the candidate re-executes (overwriting the
    // entry at fold time).
    if (const auto it = profiles_.find(plan.key);
        planned.find(plan.key) == planned.end() && it != profiles_.end() &&
        it->second.mapping == mapping &&
        (!it->second.censored || it->second.mean_seconds >= threshold)) {
      continue;  // deferred: usable profiles-database hit
    }

    planned[plan.key] = j;
    const Mapping* candidate = &mapping;
    if (options_.memory_fallbacks) {
      plan.storage = with_fallbacks(mapping);
      candidate = &plan.storage;
    }
    if (!candidate->valid(sim_.graph(), sim_.machine())) {
      plan.invalid = true;
      continue;
    }
    plan.execute = true;
    plan.cand = candidate;
    plan.outcome = exec_plans.size();
    exec_plans.push_back(j);
  }

  // Pre-execute every scheduled candidate across the pool, one lane-owned
  // scratch arena per lane. Without a pool the fold below runs lazily
  // instead (avoiding speculative work past a consume() stop).
  std::vector<CandOutcome> outcomes;
  const bool pre_executed = pool_ != nullptr && exec_plans.size() > 1;
  if (pre_executed) {
    outcomes.resize(exec_plans.size());
    pool_->parallel_for(
        exec_plans.size(),
        [&](std::size_t lane, std::size_t i) {
          const Plan& plan = plans[exec_plans[i]];
          outcomes[i] = run_candidate(*plan.cand, plan.key, threshold,
                                      bound_runs, scratches_[lane]);
        },
        options_.pool_priority, options_.pool_stream);
  }

  // Fold serially in submission order; this is the exact serial evaluate()
  // logic with run_candidate replaced by the pre-executed outcomes, so
  // every statistic, cache entry and trajectory point lands in the same
  // order with the same values regardless of thread count. Dispatch on the
  // plan's shape, not on a fresh cache probe: an execute plan may exist
  // precisely because the cached entry was censored too tightly, and must
  // overwrite it rather than read it back.
  std::size_t folded = 0;
  for (std::size_t j = 0; j < mappings.size(); ++j) {
    if (j > 0 && budget_exhausted()) break;
    const Mapping& mapping = mappings[j];
    const Plan& plan = plans[j];
    ++stats_.suggested;

    double mean;
    const char* status;
    if (plan.invalid) {
      ++stats_.invalid;
      profiles_.insert_or_assign(plan.key, Entry{mapping, kInf});
      mean = kInf;
      status = "invalid";
    } else if (plan.execute) {
      const CandOutcome out =
          pre_executed ? outcomes[plan.outcome]
                       : run_candidate(*plan.cand, plan.key, threshold,
                                       bound_runs, scratches_[0]);
      ++stats_.evaluated;
      stats_.transient_failures +=
          static_cast<std::size_t>(out.transient_failures);
      stats_.retries += static_cast<std::size_t>(out.retries);
      if (out.oom) {
        // An OOM surfaces before the event loop (placement is mapping-
        // deterministic), so censoring never masks it. It still costs some
        // time to observe (the runtime aborts during instance allocation),
        // so charge the machine-derived observation cost to the search
        // clock, plus whatever transient attempts preceded the verdict
        // (zero in fault-free operation). This fold-side charge is shared
        // by the serial and batched paths, preserving thread-count
        // invariance.
        ++stats_.oom;
        stats_.search_time_s += failure_observation_cost() + out.charge_s;
        stats_.evaluation_time_s += failure_observation_cost() + out.charge_s;
        profiles_.insert_or_assign(plan.key, Entry{mapping, kInf});
        mean = kInf;
        status = "oom";
      } else if (out.failed) {
        // Every repeat was lost to transient faults. Cache the candidate
        // as quarantined whether or not the consecutive-loss cutoff fired
        // early: fault draws come from a derived stream, so re-executing
        // under the same policy would lose the same way — the cache answer
        // is the honest one.
        ++stats_.quarantined;
        stats_.search_time_s += out.charge_s;
        stats_.evaluation_time_s += out.charge_s;
        profiles_.insert_or_assign(
            plan.key, Entry{mapping, kInf, /*censored=*/false,
                            /*quarantined=*/true});
        mean = kInf;
        status = "quarantined";
      } else {
        stats_.search_time_s += out.charge_s;
        stats_.evaluation_time_s += out.charge_s;
        if (out.censored) {
          // Fold to exactly the threshold (not budget/repeats, whose
          // rounding could land one ulp below it and leak past a caller's
          // `mean < bound` acceptance test). Censored candidates never
          // update the incumbent, trajectory or finalist list.
          ++stats_.censored;
          mean = threshold;
          profiles_.insert_or_assign(
              plan.key, Entry{mapping, mean, /*censored=*/true});
          status = "censored";
        } else {
          mean = aggregate_objective(out);
          profiles_.insert_or_assign(plan.key, Entry{mapping, mean});
          if (mean < best_seconds_) {
            best_seconds_ = mean;
            trajectory_.push_back({stats_.search_time_s, mean});
            if (journal_) {
              // 1:1 with trajectory points — the replay drift check and
              // the Chrome-trace search row both reconstruct the Fig. 9
              // curve from these.
              journal_->event("incumbent")
                  .num("clock", stats_.search_time_s)
                  .num("best", mean)
                  .integer("seq",
                           static_cast<long long>(stats_.suggested));
            }
          }
          // Maintain the top-k list for the finalist protocol.
          if (mean < kInf) insert_top(mapping, mean);
          status = "evaluated";
        }
      }
    } else {
      // Deferred: answered by the profiles database — an import, an earlier
      // search, or an earlier batch member that folded before us.
      const auto it = profiles_.find(plan.key);
      AM_CHECK(it != profiles_.end() && it->second.mapping == mapping,
               "deferred batch member lost its profiles entry");
      mean = it->second.mean_seconds;
      ++stats_.cache_hits;
      status = "cached";
    }

    if (journal_ || metrics_) journal_candidate(status, mean, plan.key);
    ++folded;
    if (!consume(j, mean)) break;
  }
  return folded;
}

void Evaluator::journal_candidate(const char* status, double mean,
                                  std::uint64_t hash) {
  const std::string_view s(status);
  if (metrics_) {
    m_suggested_->inc();
    if (s == "cached") {
      m_cache_hits_->inc();
    } else if (s == "invalid") {
      m_invalid_->inc();
    } else {
      m_evaluated_->inc();
      if (s == "oom") {
        m_oom_->inc();
      } else if (s == "censored") {
        m_censored_->inc();
      } else if (s == "quarantined") {
        m_quarantined_->inc();
      }
    }
    m_search_clock_->set(stats_.search_time_s);
    if (std::isfinite(best_seconds_)) m_best_seconds_->set(best_seconds_);
    if (std::isfinite(mean)) m_candidate_mean_->observe(mean);
  }
  if (journal_) {
    journal_->event("candidate")
        .integer("seq", static_cast<long long>(stats_.suggested))
        .str("status", s)
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
  // run counts include speculative pool work and would break the journal's
  // thread-count byte-identity.
  journal_->event("metrics")
      .num("clock", stats_.search_time_s)
      .raw("values", metrics_->snapshot_json());
}

void Evaluator::journal_search_begin(std::string_view label,
                                     const Mapping& start,
                                     bool custom_start) {
  if (!journal_) return;
  // Everything that determines the deterministic outcome is recorded via
  // the canonical codec — the same encoding the CLI's --options file and
  // the service wire protocol speak — except the thread count, which by
  // contract changes nothing (and would break journal byte-identity
  // across --threads values).
  journal_->event("search_begin")
      .str("algorithm", label)
      .raw("options", search_options_to_json(options_))
      .raw("sim", sim_options_to_json(sim_.options()))
      .str("start", start.serialize())
      .boolean("custom_start", custom_start)
      .boolean("resumed", !options_.resume_state.empty())
      .boolean("seeded_profiles", !options_.profiles_seed.empty());
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
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void Evaluator::mark_degraded() {
  stats_.degraded = true;
  if (journal_) journal_->event("degraded");
}

std::string Evaluator::serialize_state() const {
  // Text format (version 1), all doubles at precision 17 so a restored
  // state reproduces the original bit for bit:
  //
  //   evaluator-state 1
  //   best_seconds <v>
  //   counters <suggested> <evaluated> <invalid> <oom> <censored>
  //            <cache_hits> <transient_failures> <retries> <quarantined>
  //            <degraded-0/1>                        (one line, ten fields)
  //   clocks <search_time_s> <evaluation_time_s>
  //   rotations <n> / rotation <r> <before> <after> <evaluated> <time> ...
  //   trajectory <n> / point <time> <value> ...
  //   top <n> / finalist <mean> + serialized mapping ...
  //   <profiles database export>
  //
  // wall_time_s is deliberately not stored: it is real time, excluded from
  // every determinism guarantee.
  std::ostringstream os;
  os.precision(17);
  os << "evaluator-state 1\n";
  os << "best_seconds " << best_seconds_ << "\n";
  os << "counters " << stats_.suggested << " " << stats_.evaluated << " "
     << stats_.invalid << " " << stats_.oom << " " << stats_.censored << " "
     << stats_.cache_hits << " " << stats_.transient_failures << " "
     << stats_.retries << " " << stats_.quarantined << " "
     << (stats_.degraded ? 1 : 0) << "\n";
  os << "clocks " << stats_.search_time_s << " " << stats_.evaluation_time_s
     << "\n";
  os << "rotations " << stats_.rotations.size() << "\n";
  for (const RotationTelemetry& rt : stats_.rotations)
    os << "rotation " << rt.rotation << " " << rt.best_before_s << " "
       << rt.best_after_s << " " << rt.evaluated << " " << rt.search_time_s
       << "\n";
  os << "trajectory " << trajectory_.size() << "\n";
  for (const TrajectoryPoint& p : trajectory_)
    os << "point " << p.search_time_s << " " << p.best_exec_s << "\n";
  // The top-k list is serialized in its exact order: re-deriving it from
  // the profiles database could break mean ties in a different order than
  // the original chronological insertions, and finalize() resolves ties by
  // position.
  os << "top " << top_.size() << "\n";
  for (const Entry& e : top_)
    os << "finalist " << e.mean_seconds << "\n" << e.mapping.serialize();
  os << export_profiles();
  return os.str();
}

void Evaluator::restore_state(const std::string& text) {
  std::istringstream is(text);
  LineReader reader(is);
  restore_state(reader);
}

void Evaluator::restore_state(LineReader& reader) {
  AM_REQUIRE(profiles_.empty() && top_.empty() && stats_.suggested == 0,
             "restore_state requires a freshly constructed evaluator");
  const auto count = [&reader](const std::string& field) {
    return static_cast<std::size_t>(reader.to_int(field, 0));
  };
  reader.expect(reader.tagged("evaluator-state", 1)[1] == "1",
                "unsupported evaluator state version");
  best_seconds_ = reader.to_double(reader.tagged("best_seconds", 1)[1]);
  const auto counters = reader.tagged("counters", 10);
  stats_.suggested = count(counters[1]);
  stats_.evaluated = count(counters[2]);
  stats_.invalid = count(counters[3]);
  stats_.oom = count(counters[4]);
  stats_.censored = count(counters[5]);
  stats_.cache_hits = count(counters[6]);
  stats_.transient_failures = count(counters[7]);
  stats_.retries = count(counters[8]);
  stats_.quarantined = count(counters[9]);
  stats_.degraded = reader.to_int(counters[10], 0, 1) == 1;
  const auto clocks = reader.tagged("clocks", 2);
  stats_.search_time_s = reader.to_double(clocks[1]);
  stats_.evaluation_time_s = reader.to_double(clocks[2]);
  for (std::size_t i = 0, n = count(reader.tagged("rotations", 1)[1]); i < n;
       ++i) {
    const auto f = reader.tagged("rotation", 5);
    stats_.rotations.push_back(
        {.rotation = static_cast<int>(reader.to_int(f[1], 0, INT_MAX)),
         .best_before_s = reader.to_double(f[2]),
         .best_after_s = reader.to_double(f[3]),
         .evaluated = count(f[4]),
         .search_time_s = reader.to_double(f[5])});
  }
  for (std::size_t i = 0, n = count(reader.tagged("trajectory", 1)[1]); i < n;
       ++i) {
    const auto f = reader.tagged("point", 2);
    trajectory_.push_back({reader.to_double(f[1]), reader.to_double(f[2])});
  }
  const TaskGraph& graph = sim_.graph();
  for (std::size_t i = 0, n = count(reader.tagged("top", 1)[1]); i < n; ++i) {
    const double mean = reader.to_double(reader.tagged("finalist", 1)[1]);
    top_.push_back(Entry{Mapping::read(reader, graph), mean});
  }
  // The profiles section is a verbatim database export; the top-k list and
  // incumbent were restored above, so the import must not rebuild them.
  import_profiles_impl(reader, /*update_top=*/false);
}

const Mapping& EvaluatorView::best() const {
  AM_REQUIRE(!eval_->top_.empty(), "no successful evaluation yet");
  return eval_->top_.front().mapping;
}

SearchResult Evaluator::finalize(std::string algorithm_name) {
  SearchResult result;
  result.algorithm = std::move(algorithm_name);
  // The finalist protocol runs outside any rotation/coordinate scope.
  if (journal_) journal_->clear_cursor();

  // Cancellation cuts the finalist protocol too: the caller is about to
  // discard the result, so rerunning top-k x final_repeats would only
  // delay the cancel landing. The incumbent (when any) comes back as a
  // partial result with no finalize journal record. Budget exhaustion
  // alone does NOT take this path — a budget-cut search still verifies
  // its finalists exactly as before, preserving byte-identity.
  if (cancelled()) {
    if (!top_.empty()) {
      result.best = top_.front().mapping;
      result.best_seconds = top_.front().mean_seconds;
    }
    stats_.wall_time_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count();
    result.stats = stats_;
    result.trajectory = trajectory_;
    if (journal_) journal_->flush();
    return result;
  }

  // All (finalist, repeat) reruns are independent under derived seeds, so
  // they fan out across the pool as one batch and fold back in top-k order.
  const int repeats = options_.final_repeats;
  const std::size_t runs_per = static_cast<std::size_t>(repeats);
  std::vector<Mapping> candidates;
  std::vector<std::uint64_t> hashes;
  candidates.reserve(top_.size());
  hashes.reserve(top_.size());
  for (const Entry& entry : top_) {
    candidates.push_back(with_fallbacks(entry.mapping));
    hashes.push_back(entry.mapping.hash());
  }

  std::vector<RunOutcome> outcomes;
  const bool pre_executed =
      pool_ != nullptr && candidates.size() * runs_per > 1;
  if (pre_executed) {
    outcomes.resize(candidates.size() * runs_per);
    pool_->parallel_for(
        outcomes.size(),
        [&](std::size_t lane, std::size_t i) {
          const std::size_t e = i / runs_per;
          const int r = static_cast<int>(i % runs_per);
          outcomes[i] =
              execute_run(candidates[e], hashes[e], r, scratches_[lane]);
        },
        options_.pool_priority, options_.pool_stream);
  }

  const bool robust = options_.resilience.aggregation != Aggregation::kMean;
  double best_final = kInf;
  for (std::size_t e = 0; e < candidates.size(); ++e) {
    double sum = 0.0;
    int ok_runs = 0;
    bool excluded = false;
    std::vector<double> values;  // per-survivor, robust aggregations only
    for (int r = 0; r < repeats; ++r) {
      const RunOutcome out =
          pre_executed
              ? outcomes[e * runs_per + static_cast<std::size_t>(r)]
              : execute_run(candidates[e], hashes[e], r, scratches_[0]);
      // charge_s carries lost attempts, retry backoff and failure
      // observation costs (zero for a fault-free success), so the fold is
      // one accumulation for every outcome shape.
      stats_.search_time_s += out.charge_s;
      stats_.evaluation_time_s += out.charge_s;
      stats_.transient_failures +=
          static_cast<std::size_t>(out.transient_failures);
      stats_.retries += static_cast<std::size_t>(out.retries);
      if (!out.ok) {
        if (!out.transient) {
          // Deterministic failure (OOM): the finalist can never complete,
          // so stop rerunning it — the historical exclusion rule.
          excluded = true;
          break;
        }
        continue;  // transient-exhausted repeat: lost, keep folding
      }
      sum += out.objective;
      stats_.search_time_s += out.total_seconds;
      stats_.evaluation_time_s += out.total_seconds;
      ++ok_runs;
      if (robust) values.push_back(out.objective);
    }
    // A finalist scores when a strict majority of its repeats survived —
    // fault-free that is all of them, reproducing the historical
    // ok_runs == repeats rule bit for bit.
    double final_mean = kInf;
    if (!excluded && ok_runs * 2 > repeats) {
      CandOutcome agg;
      agg.objective_sum = sum;
      agg.survivors = ok_runs;
      agg.objectives = std::move(values);
      final_mean = aggregate_objective(agg);
      if (final_mean < best_final) {
        best_final = final_mean;
        result.best = top_[e].mapping;
      }
    }
    if (journal_) {
      journal_->event("finalist")
          .integer("rank", static_cast<long long>(e))
          .str("hash", hex_u64(hashes[e]))
          .boolean("excluded", excluded)
          .integer("ok_runs", ok_runs)
          .num("mean", final_mean)
          .num("clock", stats_.search_time_s);
    }
  }
  if (best_final < kInf) {
    result.best_seconds = best_final;
  } else {
    // Graceful degradation: the fault rate left every finalist
    // unprofilable. Return the best-known incumbent with the degraded flag
    // instead of throwing away the whole search.
    AM_CHECK(!top_.empty(),
             "finalist protocol found no executable mapping");
    stats_.degraded = true;
    result.best = top_.front().mapping;
    result.best_seconds = top_.front().mean_seconds;
  }
  stats_.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start_)
                           .count();
  result.stats = stats_;
  result.trajectory = trajectory_;
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
    journal_->flush();
  }
  return result;
}

}  // namespace automap
