// rc11lib/engine/supervise.hpp
//
// Crash-tolerant multi-process reachability: a supervisor process forks N
// worker processes, hands them frontier batches over pipes (engine/wire.hpp
// frames carrying the JSON records of docs/FORMAT.md) and
// merges their per-state results back into the exact bookkeeping the
// sequential driver (engine/reach.cpp) would have done — same visited-set
// interning, same stats, same stop reasons — so every checker built on
// visit_reachable gains a `--workers N` mode without changing its verdict
// logic.
//
// Division of labour:
//   * Workers are stateless evaluators.  A worker decodes each dispatched
//     state from its wire form (Config::decode_wire: the canonical encoding
//     plus raw timestamps), re-checks the digest the supervisor sent with
//     it, expands it with the engine's own expand_steps / chain_thread, runs
//     the checker's per-state logic (DistDelegate::evaluate) and ships back
//     successor chains (each hop in wire form), counts and checker events.
//     A worker owns the hash partition of the abstract-key space its slot
//     index names; a restarted worker inherits the same partition.
//   * The supervisor keeps each enqueued state's wire form — as a worker
//     sent it, or the initial state's — until that state is absorbed, and
//     interns the canonical prefix of every hop.
//   * The supervisor owns every verdict-bearing data structure.  It absorbs
//     per-state results in strict global enqueue order (buffering early
//     arrivals), interning successors into the caller's trace sink with the
//     sequential driver's exact rules — so for a fixed program and options
//     the sink contents, ExploreStats and checker verdicts are identical for
//     *every* worker count, byte for byte, and identical across runs no
//     matter how batches interleave in wall-clock time.
//
// Robustness (the point of this module): heartbeats + waitpid detect dead
// or wedged workers; every inbound frame is CRC- and schema-validated; a
// dead/hung/poisoned worker is SIGKILLed and restarted with exponential
// backoff, and only its unacknowledged batch is resent (acked results are
// already absorbed or buffered — nothing is recomputed, nothing is absorbed
// twice).  When a batch exhausts its retry budget the run degrades
// gracefully: the slot's work is quarantined, surviving workers are
// drained, and the result reports StopReason::WorkerLost with whatever was
// soundly absorbed — a partial report and exit 3, never a wrong verdict and
// never a hang past the deadline (the supervisor re-probes the budget on
// every loop turn, even while every worker is wedged).
//
// The never-wrong-verdict argument, in one paragraph: workers compute pure
// functions of states the supervisor already interned; their results enter
// the run only after CRC + schema validation and only once, in a
// deterministic order; a worker death can therefore only *delay* or
// *withhold* results, never alter them, and withheld results surface as
// explicit truncation (WorkerLost => truncated() => verdicts are lower
// bounds), exactly like a state-cap or deadline stop.  docs/DESIGN.md
// expands this.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/budget.hpp"
#include "engine/reach.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/transition_system.hpp"
#include "witness/json.hpp"

namespace rc11::engine {

/// Options for supervise_reach.  The supervisor's tuning (states per batch,
/// hang timeout, restart backoff, batch retries) is not an option: it reads
/// the RC11_DIST_BATCH, RC11_DIST_HANG_MS, RC11_DIST_BACKOFF_MS and
/// RC11_DIST_RETRIES environment variables, then built-in defaults, so tests
/// and CI can reshape batching without new CLI surface.
struct DistOptions {
  unsigned workers = 1;  ///< worker processes (>= 1; 1 is the reference run)
  Budget budget;
  bool por = false;  ///< mirrored into the workers' expand_steps
  bool rf_quotient = false;
  RfPins rf_pins;  ///< extra rf-quotient key pins (ignored unless rf_quotient)
  const CancelToken* cancel = nullptr;
  /// State-level kinds gate the supervisor's absorption claims; the
  /// process-level kinds (Crash/Hang/Corrupt) fire inside workers, keyed by
  /// the global dispatch index (resends get fresh indices).
  FaultPlan fault;
};

/// The checker half of a supervised run, split at the process boundary:
/// evaluate() runs in the *worker* (it sees real Configs and Steps but must
/// emit only serialisable JSON events), absorb() runs in the *supervisor*
/// (it sees events plus the state's id in the shared trace sink, and owns
/// all verdict state).  Both halves exist in both processes — fork copies
/// the delegate — but each process only ever calls its own half.
class DistDelegate {
 public:
  virtual ~DistDelegate() = default;

  /// Worker side: checker logic for one claimed state (the analogue of a
  /// StateVisitor call).  Push any findings as JSON events; return false to
  /// veto further exploration (the supervisor stops claiming states once
  /// the veto is absorbed, exactly like a visitor returning false).
  virtual bool evaluate(const Config& cfg, std::span<const lang::Step> steps,
                        std::vector<witness::Json>& events) = 0;

  /// Supervisor side: absorb one event evaluate() emitted for the state
  /// interned as `id` in `sink` (path_to / decode_state reconstruct traces
  /// and witnesses; an event that needs the concrete state carries its wire
  /// form, which Config::decode_wire inverts).  Called in deterministic
  /// global state order, events in emission order.  Return false to veto
  /// further exploration.
  virtual bool absorb(const witness::Json& event, std::uint64_t id,
                      const ShardedVisitedSet& sink) = 0;
};

/// Robustness counters: how bumpy the run was, *not* part of the verdict
/// (a recovered run must stay byte-identical to an undisturbed one, so
/// these are reported next to — never inside — ExploreStats).
struct DistTelemetry {
  std::uint64_t worker_restarts = 0;  ///< processes killed and re-forked
  std::uint64_t batches_retried = 0;  ///< batches resent after a recovery
  std::uint64_t frames_corrupt = 0;   ///< frames rejected by CRC/schema
  std::uint64_t states_orphaned = 0;  ///< states quarantined by WorkerLost
};

struct DistResult {
  ExploreStats stats;
  /// Complete covers full enumeration and a delegate veto; WorkerLost means
  /// the retry budget died on some batch and `stats` covers only the states
  /// absorbed before the survivors drained.
  StopReason stop = StopReason::Complete;
  DistTelemetry telemetry;
  [[nodiscard]] bool truncated() const { return stop != StopReason::Complete; }
};

/// Runs the supervised multi-process exploration.  `sink` must be a fresh
/// trace sink and outlive the call; on return it holds exactly the states a
/// sequential traced run (same options, sleep sets off) would have interned
/// — checkpointable with make_checkpoint and resumable by single-process
/// runs.  Rejects workers == 0.  Not async-signal-reentrant (it forks and
/// temporarily ignores SIGPIPE); call it from one thread at a time.
[[nodiscard]] DistResult supervise_reach(const TransitionSystem& ts,
                                         const DistOptions& options,
                                         DistDelegate& delegate,
                                         ShardedVisitedSet& sink);

}  // namespace rc11::engine
