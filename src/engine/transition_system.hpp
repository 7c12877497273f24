// rc11lib/engine/transition_system.hpp
//
// The shared transition-system abstraction all four checkers sit on.  A
// TransitionSystem produces, for any configuration, the enabled steps of the
// combined operational semantics — each tagged with independence metadata
// (acting thread, accessed location, read/write/RMW/object kind, sync flag;
// see lang::StepMeta) — plus the state-local reduction the generic
// reachability driver (engine/reach.hpp) can apply: ample-set partial-order
// reduction.
//
// SystemTransitions is the one implementation, covering client-only systems,
// clients over abstract objects and clients over inlined library
// implementations uniformly: lang::successors already dispatches on
// instruction and location kinds, so the three system shapes differ only in
// which instruction kinds their code contains, not in how successors are
// produced or classified.
//
// --- the independence relation -----------------------------------------------
//
// Two steps a, b of *different* threads are treated as dependent iff
//
//   (1) both access a location, the location is the same, and at least one
//       of them writes it (plain write, RMW, or object method call), or
//   (2) either step carries a sync (rel/acq) flag — non-relaxed plain
//       access, RMW (always RA), or object method call.
//
// Same-thread steps are always dependent (program order).  Steps of *local*
// instructions (Assign / Branch / Jump) touch no location and carry no
// flags, so they are independent of every other-thread step: they read and
// write only the acting thread's registers and pc, and no other thread's
// step can read or write those — in the RC11 RAR semantics view transfer
// happens exclusively through memory operations (docs/SEMANTICS.md §9).
// This relation over-approximates true dependence (e.g. two acquiring loads
// of distinct locations commute in the semantics but are declared
// dependent), which is the safe direction for the reduction.
//
// --- ample sets --------------------------------------------------------------
//
// ample_thread() returns a thread t whose full enabled-step set at cfg is a
// *persistent* set under the relation above, subject to the cycle proviso
// that every ample step strictly increases t's program counter:
//
//   * t's next instruction is local (always, modulo policy/proviso below), or
//   * t's next instruction is a relaxed plain access to a location no other
//     thread ever conflicts with (no other writer for a load; no other
//     accessor for a store) *and* no other thread's code contains any
//     sync-flagged instruction (clause (2) makes sync steps dependent on
//     everything, so their mere existence blocks non-local ample sets).
//
// Eligibility is decided from static per-location footprint masks computed
// once per system, so ample selection is a pure function of the
// configuration: the reduced state graph is identical for every worker count
// and trace mode.  The pc-progress proviso makes a cycle consisting solely
// of ample transitions impossible (the sum of pcs strictly increases along
// ample edges and no ample step decreases any pc), which defuses the
// ignoring problem.  Soundness: reduced and full exploration reach exactly
// the same final and blocked states; see docs/SEMANTICS.md §9 for the
// argument and the caveat on per-state invariants.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lang/config.hpp"

namespace rc11::engine {

using lang::Config;
using lang::StepBuffer;
using lang::System;
using lang::ThreadId;

/// Which steps an ample set may be built from.
enum class AmplePolicy : std::uint8_t {
  /// Sound for final/blocked-state properties (outcome sets, deadlocks,
  /// outline postconditions): any local step, any private relaxed access.
  FinalState,
  /// Additionally requires ample steps to be invisible to the client
  /// projection of refinement.hpp (Branch/Jump; Assign only to
  /// Library-component registers; private relaxed accesses only to
  /// Library-component locations), so reduced state graphs preserve the
  /// stutter-reduced projection traces the refinement checkers compare.
  ClientInvisible,
};

/// The driver-level independence relation over step footprints (see the
/// header comment): true iff steps with these metadata, taken by *different*
/// threads, commute and preserve each other's step sets.  Local steps are
/// independent of every other-thread step; otherwise either sync flag or a
/// same-location conflict with at least one writer makes the pair dependent.
/// Shared by ample-set eligibility reasoning and the driver's sleep-set
/// pruning (ReachOptions::sleep_sets).
[[nodiscard]] constexpr bool steps_independent(const lang::StepMeta& a,
                                               const lang::StepMeta& b) noexcept {
  if (a.access == memsem::AccessKind::Local ||
      b.access == memsem::AccessKind::Local) {
    return true;
  }
  if (a.sync || b.sync) return false;
  if (a.loc != b.loc) return true;
  return !memsem::writes_location(a.access) &&
         !memsem::writes_location(b.access);
}

/// Successor production + reduction eligibility for one system.
class TransitionSystem {
 public:
  virtual ~TransitionSystem() = default;

  [[nodiscard]] virtual const System& system() const = 0;
  [[nodiscard]] virtual Config initial() const = 0;

  /// Clears `out` and fills it with every enabled step of every thread,
  /// tagged with independence metadata (Step::meta).
  virtual void successors_into(const Config& cfg, StepBuffer& out,
                               bool want_labels) const = 0;

  /// Clears `out` and fills it with thread t's enabled steps only.
  virtual void thread_successors_into(const Config& cfg, ThreadId t,
                                      StepBuffer& out,
                                      bool want_labels) const = 0;

  /// A thread whose enabled steps form a valid ample set at `cfg` (see the
  /// header comment), or nullopt when only full expansion is sound.  Must be
  /// a pure function of `cfg` and thread-safe.
  [[nodiscard]] virtual std::optional<ThreadId> ample_thread(
      const Config& cfg) const = 0;

  /// The lowest thread whose next instruction is local (lang::fusible_thread),
  /// if any.  No driver calls it: `por` subsumes local-step fusion, and
  /// witness minimisation calls lang::fusible_thread directly.  It stays
  /// only because perfbench/trace.cpp's timing TransitionSystem overrides it.
  [[nodiscard]] virtual std::optional<ThreadId> fusible_thread(
      const Config& cfg) const = 0;

  /// Whether the reachability driver may additionally *collapse*
  /// deterministic local ample chains under POR: when a state's ample thread
  /// is at a local instruction, that single successor is fast-forwarded
  /// until the first state with no such step, and the intermediate states
  /// are never visited (they are still interned in a trace sink, as real
  /// single steps, so witnesses replay unchanged).  This is where most of
  /// the visited-state reduction comes from — ample pruning alone only
  /// removes transitions whose target states usually stay reachable through
  /// other interleavings.  Sound for final/blocked-state properties (chain
  /// states always have an enabled step, so no final or blocked state is
  /// ever skipped); off under ClientInvisible because graph builders need
  /// single-step edges between the states they collect.
  [[nodiscard]] virtual bool collapse_chains() const = 0;
};

/// The lang::System-backed implementation (the only one; see header).
class SystemTransitions final : public TransitionSystem {
 public:
  explicit SystemTransitions(const System& sys,
                             AmplePolicy policy = AmplePolicy::FinalState);

  [[nodiscard]] const System& system() const override { return *sys_; }
  [[nodiscard]] Config initial() const override;
  void successors_into(const Config& cfg, StepBuffer& out,
                       bool want_labels) const override;
  void thread_successors_into(const Config& cfg, ThreadId t, StepBuffer& out,
                              bool want_labels) const override;
  [[nodiscard]] std::optional<ThreadId> ample_thread(
      const Config& cfg) const override;
  [[nodiscard]] std::optional<ThreadId> fusible_thread(
      const Config& cfg) const override;
  [[nodiscard]] bool collapse_chains() const override {
    return policy_ == AmplePolicy::FinalState;
  }

 private:
  [[nodiscard]] bool ample_eligible(const Config& cfg, ThreadId t) const;

  const System* sys_;
  AmplePolicy policy_;
  // Static footprint masks (bit t set = thread t has such an instruction),
  // valid only when num_threads <= 64 (masks_valid_); larger systems fall
  // back to local-step ample sets only.
  std::vector<std::uint64_t> loc_writers_;    ///< per loc: threads writing it
  std::vector<std::uint64_t> loc_accessors_;  ///< per loc: threads touching it
  std::uint64_t sync_threads_ = 0;  ///< threads with any sync instruction
  bool masks_valid_ = false;
};

}  // namespace rc11::engine
