// rc11lib/og/proof_outline.hpp
//
// Owicki-Gries proof outlines and their checking (Sections 5.2-5.3).
//
// A proof outline annotates every program point of every thread (plus the
// terminal point) with an assertion, optionally together with a global
// invariant.  The paper establishes outline validity deductively (local
// correctness + interference freedom, mechanised in Isabelle/HOL); per the
// substitution documented in DESIGN.md we *check* the same obligations over
// the reachable state space of the finite instantiation:
//
//   * validity: the initial configuration satisfies all initial annotations,
//     and every reachable configuration satisfies the global invariant and,
//     for every thread, the annotation at that thread's current pc;
//   * interference freedom (the classic Owicki-Gries side condition
//     {A ∧ pre(S)} S {A}, restricted to reachable states): for every
//     reachable configuration, every annotation A of thread t that holds
//     there must still hold after any enabled step of any other thread.
//
// Validity of the conjunction-at-current-pc is what Lemma 4 / Fig. 7 assert;
// the interference check is strictly stronger (it also tests annotations at
// non-current program points) and corresponds to the actual OG obligations.
//
// The module also provides a Hoare-triple checker for single statements,
// used to reproduce the per-rule properties of Lemma 3.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "assertions/assertions.hpp"
#include "explore/explorer.hpp"

namespace rc11::og {

using assertions::Assertion;
using lang::Config;
using lang::Instr;
using lang::System;
using lang::ThreadId;

/// A proof outline: annotations[t][pc] for pc in [0, code-size], where index
/// code-size is the thread's postcondition.  Missing entries default to true.
class ProofOutline {
 public:
  explicit ProofOutline(const System& sys);

  /// Sets the assertion at one program point (fails on out-of-range pc).
  void annotate(ThreadId t, std::uint32_t pc, Assertion a);

  /// Sets the thread's postcondition (annotation at its terminal pc).
  void postcondition(ThreadId t, Assertion a);

  /// Sets the global invariant (Inv of Section 5.3), checked at every state.
  void invariant(Assertion a) { invariant_ = std::move(a); }

  [[nodiscard]] const Assertion& at(ThreadId t, std::uint32_t pc) const;
  [[nodiscard]] const Assertion& global_invariant() const { return invariant_; }
  [[nodiscard]] std::uint32_t terminal_pc(ThreadId t) const;

 private:
  std::vector<std::vector<Assertion>> annotations_;
  Assertion invariant_;
};

/// One failed proof obligation.
struct ObligationFailure {
  std::string obligation;  ///< which check failed, human-readable
  std::string state_dump;
  std::vector<std::string> trace;  ///< when trace tracking is enabled
  /// Structured, replayable counterexample (present iff the run records
  /// traces — track_traces or checkpoint_path):
  /// serialise with witness::to_json, validate with witness::replay.
  std::optional<witness::Witness> witness;
};

struct OutlineCheckResult {
  bool valid = true;
  std::vector<ObligationFailure> failures;
  explore::ExploreStats stats;  ///< size of the examined state space
  std::uint64_t obligations_checked = 0;
  /// Why the enumeration ended; anything but Complete means only part of
  /// the state space was checked and `valid` is not a proof (a
  /// stop_at_first_failure stop is Complete — the verdict is definite).
  engine::StopReason stop = engine::StopReason::Complete;
  /// Robustness counters of a supervised (--workers) run; all zero
  /// otherwise.  Kept out of `stats` so recovered runs stay byte-identical
  /// to undisturbed ones in verdict-bearing output.
  engine::DistTelemetry dist;
  [[nodiscard]] bool truncated() const {
    return stop != engine::StopReason::Complete;
  }
};

/// The outline checker's options: the shared run settings
/// (engine::RunOptions) plus its own obligation knobs.  How the run-level
/// settings bear on obligations:
///   * num_threads > 1 evaluates obligations in parallel over the same state
///     set — the verdict and the *set* of failed obligations are identical,
///     but failures arrive unordered and the trace attached to each may
///     differ run to run (every recorded trace is still a real execution).
///   * `por` evaluates obligations on the reduced state set: failures found
///     are real and failures at final/blocked states (postconditions,
///     deadlocks) are never missed, but an obligation violated only at a
///     pruned intermediate interleaving may be — POR trades the full
///     quantification of the Owicki–Gries side conditions for outcome-level
///     soundness (RC11_POR_CROSSCHECK checks verdict agreement on the
///     outline corpus).
///   * `symmetry` stays exact: obligations are evaluated at every orbit
///     member of each visited representative, with the member's enabled
///     steps obtained by permuting the representative's, so the verdict,
///     the failed obligations and obligations_checked equal an unreduced
///     run's.
///   * `rf_quotient` pins the view footprint of every annotation and of the
///     global invariant into the quotient key, so the verdict and the set of
///     failed obligations equal an unreduced run's (obligations_checked
///     shrinks with the visited set); rejected loudly when an annotation has
///     an unknown footprint (assertions::pred).
///   * Strategy::Sample evaluates obligations on the states the episodes
///     cross: failures found are real, but `valid` is never a proof — the
///     result stops with StopReason::EpisodeCap, so truncated() holds.
struct OutlineCheckOptions : engine::RunOptions {
  bool check_interference = true;  ///< also run the pairwise OG side condition
  bool stop_at_first_failure = true;
};

/// Checks outline validity (and, optionally, interference freedom) over the
/// reachable state space.
[[nodiscard]] OutlineCheckResult check_outline(const System& sys,
                                               const ProofOutline& outline,
                                               OutlineCheckOptions options = {});

// --- Hoare triples for single statements (Lemma 3) ---------------------------

/// Selects the statements a triple is about, e.g. "any lock-acquire by
/// thread t on location l".
using StatementFilter = std::function<bool(ThreadId t, const Instr&)>;

/// Postcondition over (configuration before, configuration after) — binding
/// the paper's version variable v is done by inspecting `after` (e.g. the
/// version of the operation the statement created).
using TriplePost =
    std::function<bool(const System&, const Config& before, const Config& after)>;

struct TripleCheckResult {
  bool valid = true;
  std::uint64_t instances_checked = 0;  ///< (state, step) pairs examined
  std::vector<ObligationFailure> failures;
};

/// Checks {pre} S {post} for every reachable configuration of `sys` where
/// `pre` holds and an enabled step matches `filter`: every such step must
/// lead to a configuration satisfying `post`.  Vacuously valid (but reported
/// via instances_checked == 0) if no instance arises — callers should assert
/// on instances_checked to guard against vacuity.
[[nodiscard]] TripleCheckResult check_triple(const System& sys,
                                             const Assertion& pre,
                                             const StatementFilter& filter,
                                             const TriplePost& post,
                                             std::uint64_t max_states = 1'000'000);

}  // namespace rc11::og
