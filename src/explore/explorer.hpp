// rc11lib/explore/explorer.hpp
//
// Explicit-state exploration of the combined transition relation.  This is
// the engine behind the substitution documented in DESIGN.md: the paper
// discharges its lemmas symbolically in Isabelle/HOL; we decide the same
// questions on finite instantiations by enumerating every reachable
// configuration of the operational semantics.
//
// The enumeration itself lives in the shared engine layer — see
// engine/reach.hpp (generic reachability driver, sequential and parallel),
// engine/transition_system.hpp (successor generation + independence
// metadata + ample-set POR) and engine/run.hpp (the run settings every
// checker shares, engine::RunOptions, and the harness that validates them,
// dispatches and checkpoints).  This header adds the explorer proper:
// invariant evaluation, final-configuration collection and witnesses.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/reach.hpp"
#include "engine/run.hpp"
#include "engine/supervise.hpp"
#include "lang/config.hpp"
#include "witness/witness.hpp"

namespace rc11::explore {

using lang::Config;
using lang::Step;
using lang::System;
using lang::ThreadId;

/// The explorer's options: the shared run settings (engine::RunOptions —
/// budgets, threads, reductions, coverage strategy, traces, checkpoints,
/// worker processes) plus its own verdict knobs.  Every final
/// configuration is collected.  Under `symmetry` the explorer orbit-closes
/// final configurations and evaluates the invariant at every orbit member of
/// each visited representative; under `rf_quotient` final_configs holds one
/// representative per merged class, so callers comparing runs compare
/// outcomes, not raw final encodings.
struct ExploreOptions : engine::RunOptions {
  /// Viewfront entries to pin into the rf-quotient key: the invariant's
  /// view footprint (assertions::Assertion::footprint()), so its verdict is
  /// a function of the key.  Reject footprint-less invariants before
  /// setting rf_quotient.  Ignored unless rf_quotient.
  engine::RfPins rf_pins;
  /// Stop at the first invariant violation (otherwise keep counting).
  bool stop_on_violation = true;
};

/// An invariant violation with an optional counterexample trace.
struct Violation {
  std::string what;              ///< description from the invariant callback
  std::string state_dump;        ///< pretty-printed violating configuration
  std::vector<std::string> trace;  ///< step labels from the initial state
  /// Structured, replayable counterexample (present iff the run records
  /// traces — track_traces or checkpoint_path):
  /// serialise with witness::to_json, validate with witness::replay.
  std::optional<witness::Witness> witness;
};

struct ExploreResult {
  engine::ExploreStats stats;
  /// Deduplicated and sorted by canonical encoding, so results compare
  /// equal across thread counts.
  std::vector<Config> final_configs;
  /// Sorted by (what, state_dump); identical modulo traces for any thread
  /// count when stop_on_violation is off.
  std::vector<Violation> violations;
  /// Why the run ended; anything but Complete means partial results (a
  /// stop_on_violation stop is Complete — stopping was the caller's choice).
  engine::StopReason stop = engine::StopReason::Complete;
  bool truncated = false;  ///< stop != Complete: results are a lower bound
  /// Robustness counters of a supervised run (all zero when workers == 0 or
  /// the run was undisturbed).  Deliberately *not* part of `stats`: a
  /// recovered run must stay byte-identical to an undisturbed one in every
  /// verdict-bearing output, so these are surfaced in human-readable stats
  /// blocks only.
  engine::DistTelemetry dist;

  [[nodiscard]] bool ok() const { return violations.empty() && !truncated; }
};

/// Invariant callback: return a description to report a violation at this
/// reachable configuration, or std::nullopt if the configuration is fine.
/// Must be thread-safe when RunOptions::num_threads resolves to > 1.
using Invariant =
    std::function<std::optional<std::string>(const System&, const Config&)>;

/// Explores all configurations reachable from the initial configuration.
/// `invariant` (if given) is evaluated at every reachable configuration.
[[nodiscard]] ExploreResult explore(const System& sys,
                                    const ExploreOptions& options = {},
                                    const Invariant& invariant = {});

/// Convenience: the set of final values of selected registers, as tuples in
/// the order given.  This is how litmus outcomes ("r1 = 1, r2 = 0 allowed?")
/// are extracted.
[[nodiscard]] std::vector<std::vector<lang::Value>> final_register_values(
    const System& sys, const ExploreResult& result,
    const std::vector<lang::Reg>& regs);

/// True iff some final configuration assigns exactly `values` to `regs`.
[[nodiscard]] bool outcome_reachable(const System& sys,
                                     const ExploreResult& result,
                                     const std::vector<lang::Reg>& regs,
                                     const std::vector<lang::Value>& values);

}  // namespace rc11::explore
