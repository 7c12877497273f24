// rc11lib/engine/run.hpp
//
// The run scaffolding every state-space checker shares.  explore::explore,
// race::check and og::check_outline differ only in their verdict logic (a
// StateVisitor, its DistDelegate twin for --workers, and orbit closure under
// --symmetry); everything around the driver is decided here, once:
//
//   * RunOptions — the run-level settings (budgets, threads, reductions,
//     coverage strategy, traces, cancellation, faults, checkpoint/resume,
//     worker processes).  Each checker's options struct derives from it and
//     adds only its own knobs, and so does the CLI's CommonOptions.
//   * CheckerRun — validates the option combination, owns the trace sink,
//     derives the driver options (ReachOptions in-process, DistOptions under
//     --workers), dispatches, and checkpoints a truncated run with the
//     settings it actually used.  recorded_run() turns a state id into the
//     trace labels and replayable witness every checker reports.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/budget.hpp"
#include "engine/reach.hpp"
#include "engine/sample.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/supervise.hpp"
#include "engine/transition_system.hpp"
#include "witness/witness.hpp"

namespace rc11::engine {

struct RunOptions {
  /// Hard cap on distinct states; the run stops with StopReason::StateCap
  /// beyond it and reports a lower bound.
  std::uint64_t max_states = 1'000'000;
  /// Memory budget for the visited set in bytes (0 = unlimited); exceeding
  /// it stops the run with StopReason::MemCap and valid partial results.
  std::uint64_t max_visited_bytes = 0;
  /// Wall-clock deadline in milliseconds (0 = none); expiry stops the run
  /// with StopReason::Deadline.
  std::uint64_t deadline_ms = 0;
  /// Worker threads expanding configurations: 1 (the default) runs the exact
  /// sequential search — required for BFS shortest-trace guarantees and for
  /// reproducible failure order; 0 resolves to
  /// std::thread::hardware_concurrency(); N > 1 runs a shared-frontier pool
  /// over a lock-striped visited set (engine/sharded_visited.hpp).  For
  /// every thread count the *set* of visited states and every verdict are
  /// identical (checkers sort their findings canonically); only per-run
  /// orderings — which finding is reported first under a stop-at-first
  /// option, which states fall inside a max_states truncation, which trace
  /// a witness follows — may differ.  Checker callbacks (invariants) must be
  /// thread-safe when more than one worker resolves.
  unsigned num_threads = 1;
  /// Ample-set partial-order reduction in the shared driver (adds the cycle
  /// proviso, private relaxed accesses and chain collapse — see
  /// engine/transition_system.hpp).  Sound for final states, outcomes,
  /// deadlocks and race sets; the reduced graph is identical for every
  /// num_threads and worker count, and witnesses from reduced runs replay
  /// through the full semantics.  Per-state properties (invariants,
  /// outline obligations) are evaluated on the reduced state set: findings
  /// are real and findings at final/blocked states are never missed, but
  /// one confined to a pruned intermediate interleaving may be (the
  /// RC11_POR_CROSSCHECK suite checks exact agreement on the corpus — see
  /// docs/SEMANTICS.md §9).  The one POR setting: `--strategy por` sets it.
  bool por = false;
  /// Thread-symmetry quotient (engine/symmetry.hpp) plus sleep-set pruning:
  /// the visited set keeps one representative per thread-permutation orbit
  /// of provably interchangeable threads.  Exact because each checker
  /// orbit-closes what it reports (finals, violations, obligations, races);
  /// traces lead to the visited representative, and a finding at a permuted
  /// member is flagged in its trace.  A sound no-op without interchangeable
  /// threads.  Rejected under Strategy::Sample and with `workers`.
  bool symmetry = false;
  /// Execution-graph quotient (engine/abstraction.hpp) plus sleep-set
  /// pruning: states are deduplicated by [pcs, registers, rf/mo projection]
  /// instead of their concrete encoding.  Exact for verdicts, outcome sets
  /// and race sets when every per-state predicate is a function of the key
  /// (checkers pin predicate footprints — see CheckerRun::run); concrete
  /// lists such as final configurations hold one representative per merged
  /// class.  Rejected with `symmetry` (v1), under Strategy::Sample and under
  /// the SC memory model.
  bool rf_quotient = false;
  /// Coverage strategy (engine/sample.hpp): Exhaustive enumerates (with or
  /// without `por`); Sample runs `sample.episodes` seeded random schedules
  /// and reports StopReason::EpisodeCap unless something stopped it
  /// earlier — findings are real, a clean result is a lower bound.  Sample
  /// rejects checkpoint_path, resume, `por`, `symmetry`, `rf_quotient` and
  /// `workers`.
  Strategy mode = Strategy::Exhaustive;
  /// Tuning for Strategy::Sample (episodes, seed, guided bias, episode step
  /// cap); ignored otherwise.
  SampleOptions sample;
  /// Record parent links and step labels so findings carry a trace and a
  /// replayable witness (costs memory; off for benchmarks).  Works for any
  /// num_threads and worker count.
  bool track_traces = false;
  /// Cooperative cancellation token, polled once per claimed state; the run
  /// stops with StopReason::Interrupted once it fires.  Must outlive the
  /// call; null disables the check.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault injection for robustness tests (engine::FaultPlan).
  FaultPlan fault;
  /// Resume from a checkpoint of an earlier stopped run (must outlive the
  /// call; `por`, `symmetry` and `rf_quotient` must match the checkpoint's).
  /// Verdicts, states, transitions, finals and blocked counts equal an
  /// uninterrupted run's (engine/checkpoint.hpp).  Rejected with `workers`.
  const Checkpoint* resume = nullptr;
  /// When non-empty and the run stops early (any StopReason but Complete),
  /// write a checkpoint file here, resumable by in-process runs.  Implies
  /// trace recording (the checkpoint is built from the trace sink), so
  /// findings carry traces and witnesses as under track_traces.
  std::string checkpoint_path;
  /// Supervised multi-process checking (engine/supervise.hpp): fork this
  /// many worker processes, partition the frontier by state hash and merge
  /// results deterministically — verdicts, stats and findings are
  /// byte-identical for every worker count, and a crashed or hung worker is
  /// restarted with only its unacknowledged batch replayed.  0 (default)
  /// stays in-process.  Rejected with symmetry, Strategy::Sample,
  /// num_threads > 1 and resume; composes with por, rf_quotient, budgets,
  /// cancellation and checkpoint_path.
  unsigned workers = 0;
};

/// Parses a --strategy value: "exhaustive", "por" (sets `por`), "sample" or
/// "sample:N" (N = episode count, whole positive number).  Returns false on
/// anything else and then leaves `out` untouched.
[[nodiscard]] bool parse_strategy(std::string_view text, RunOptions& out);

/// Stable name of the run's coverage strategy for reports and JSON
/// summaries: "sample", "por" or "exhaustive".
[[nodiscard]] const char* strategy_name(const RunOptions& options) noexcept;

/// A run the trace sink recorded, ready for a checker's report.
struct RecordedRun {
  /// "init" followed by one step label per step; empty when the run records
  /// no traces.
  std::vector<std::string> trace;
  /// The same steps with reached-state digests, the initial digest and the
  /// finding's description; present iff the run records traces.
  std::optional<witness::Witness> witness;
};

/// What a checker adds to the driver settings beyond RunOptions.
struct DriverExtras {
  /// View footprints of the predicates the checker evaluates per state,
  /// pinned into the rf-quotient key.
  RfPins rf_pins;
  /// Fill Step::label for the visitor even when no traces are recorded.
  bool want_labels = false;
  /// Search order and local-step fusion, for the checkers that expose them
  /// (explore::ExploreOptions, race::RaceOptions).
  SearchStrategy strategy = SearchStrategy::Dfs;
  bool fuse_local_steps = false;
};

/// One checker run over `sys`.  Construct it (which validates the options),
/// build the visitor and delegate against trace(), then call run() once.
class CheckerRun {
 public:
  /// Throws support::Error on an option combination the run cannot honour,
  /// with the wording the CLIs print.
  CheckerRun(const System& sys, const RunOptions& options);
  CheckerRun(const CheckerRun&) = delete;
  CheckerRun& operator=(const CheckerRun&) = delete;

  /// The trace sink, or null when the run records no traces (track_traces
  /// off and no checkpoint_path).  path_to is safe against concurrent
  /// inserts, so visitors may consult it mid-run from any worker.
  [[nodiscard]] const ShardedVisitedSet* trace() const noexcept {
    return traced_ ? &*sink_ : nullptr;
  }

  /// The recorded run from the initial state to state `id`, its witness
  /// tagged with `kind`, `source`, `what` and `state_dump`; empty when the
  /// run records no traces.
  [[nodiscard]] RecordedRun recorded_run(std::uint64_t id,
                                         std::string_view kind,
                                         std::string_view source,
                                         std::string_view what,
                                         std::string_view state_dump) const;

  /// Runs the driver: visit_reachable with `visitor` in-process, or
  /// supervise_reach with `delegate` under RunOptions::workers.  Saves the
  /// checkpoint when the run stops early and checkpoint_path is set.
  /// DistResult::telemetry stays zero in-process.
  [[nodiscard]] DistResult run(const StateVisitor& visitor,
                               DistDelegate& delegate,
                               const DriverExtras& extras = {});

 private:
  const SystemTransitions ts_;
  const RunOptions& options_;
  const bool traced_;
  std::optional<ShardedVisitedSet> sink_;
  std::uint64_t initial_digest_ = 0;
};

}  // namespace rc11::engine
