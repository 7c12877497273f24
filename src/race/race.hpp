// rc11lib/race/race.hpp
//
// Data-race detection over the shared reachability engine.
//
// RC11 declares a program racy when two conflicting accesses — same
// location, at least one a write, at least one non-atomic — are unordered
// by happens-before.  The paper's semantics never needed this judgement
// (its case studies are all-atomic), but any C11-style library that mixes
// plain fields with atomics does: a race means undefined behaviour, so the
// verdict gates every other property.
//
// The detection itself lives inside the memory semantics (memsem/state.cpp)
// behind SemanticsOptions::race_detection: each thread carries a vector
// clock advanced at releasing operations and joined at genuine
// synchronisation edges, and each (location, thread, access-category) cell
// remembers the epoch of its last access, FastTrack-style.  A step whose
// access is concurrent (by those clocks) with a recorded conflicting access
// deposits a RaceRecord on the post-state.  This module is the thin checker
// on top: it drives engine::visit_reachable over the system (with the flag
// forced on), harvests each step's records, canonicalises and deduplicates
// them, orbit-closes under thread symmetry, and attaches replayable
// witnesses naming both access sites.
//
// Everything around the driver — option validation, the trace sink,
// dispatch to the in-process or supervised driver, checkpoints — is the
// shared harness's (engine/run.hpp); this module supplies the visitor, its
// --workers delegate and the orbit closure.
//
// Soundness under the reductions mirrors the other checkers (DESIGN.md):
// ample steps are local or private relaxed/non-atomic accesses, which
// neither synchronise nor conflict with another thread, so deferring them
// changes no clock and no contested summary cell — the reduced graph
// reports the same race set.  Under the symmetry quotient a permuted
// execution reports the thread-permuted record, so the full set is restored
// by closing each record under the group (a permuted execution of a racy
// trace is itself a real racy execution).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/reach.hpp"
#include "engine/run.hpp"
#include "engine/supervise.hpp"
#include "lang/config.hpp"
#include "memsem/state.hpp"
#include "witness/witness.hpp"

namespace rc11::race {

using lang::Config;
using lang::System;
using memsem::RaceAccess;
using memsem::RaceCat;
using memsem::RaceRecord;

/// Human name of an access category ("non-atomic write", …).
[[nodiscard]] const char* access_name(RaceCat cat) noexcept;

/// The race checker's options: the shared run settings (engine::RunOptions)
/// plus its search order, local-step fusion and stop knob.  The *set* of reported races is identical for
/// every thread count, worker count and reduction; only traces, state dumps
/// and witness choice may differ between runs.  `rf_quotient` needs no
/// pinning here: race clocks, summary cells and per-op messages are part of
/// the quotient key whenever race_detection is on, and records surface on
/// step post-states, which pair up class-by-class.  Under Strategy::Sample
/// the race set is a lower bound.  NOTE: witnesses from a race run replay
/// only against a System whose SemanticsOptions::race_detection is true
/// (the clocks are part of the state encoding the digests cover).
struct RaceOptions : engine::RunOptions {
  /// Search order and local-step fusion, as in explore::ExploreOptions.
  engine::SearchStrategy strategy = engine::SearchStrategy::Dfs;
  bool fuse_local_steps = false;
  /// Stop at the first race (default off: cross-checks compare full sets).
  bool stop_on_race = false;
};

/// One data race.  `record` is an *unordered* pair in canonical order (the
/// two sides sorted by thread, pc, category): which access the detector saw
/// first depends on the interleaving, so the report must not.
struct ReportedRace {
  RaceRecord record;
  std::string location;    ///< location name (record.loc resolved)
  std::string what;        ///< one-line description naming both sites
  std::string state_dump;  ///< configuration right after the racing step
  std::vector<std::string> trace;  ///< step labels (iff traces are recorded)
  /// Replayable witness whose final step performs the racing access
  /// (present iff traces are recorded and this record was directly observed —
  /// symmetry-closed siblings reuse the representative's trace, flagged by
  /// a trailing note, and carry no witness of their own).
  std::optional<witness::Witness> witness;
};

struct RaceResult {
  engine::ExploreStats stats;
  /// Deduplicated and sorted by (location, both sites), so the set compares
  /// equal across thread counts, strategies and reductions.
  std::vector<ReportedRace> races;
  engine::StopReason stop = engine::StopReason::Complete;
  bool truncated = false;  ///< stop != Complete: the race set is a lower bound
  /// Robustness counters of a supervised (--workers) run; all zero
  /// otherwise.  Kept out of `stats` so recovered runs stay byte-identical
  /// to undisturbed ones in verdict-bearing output.
  engine::DistTelemetry dist;

  [[nodiscard]] bool racy() const { return !races.empty(); }
  /// Race-free and the search completed: a definitive clean verdict.
  [[nodiscard]] bool clean() const { return races.empty() && !truncated; }
};

/// Checks `sys` for data races.  Runs on a copy with race_detection forced
/// on, so callers keep their zero-overhead encodings; `sys` itself is not
/// modified.
[[nodiscard]] RaceResult check(const System& sys, const RaceOptions& options = {});

}  // namespace rc11::race
