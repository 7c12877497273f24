// rc11lib/refinement/refinement.hpp
//
// Contextual refinement for weak-memory libraries (Section 6).
//
// Definition 5 (state refinement) compares *client projections*: the client
// registers, the client variables' operation histories and covered set, and
// per-thread observability — a concrete state refines an abstract state when
// the local client states agree, the client covered sets agree, and every
// thread's concrete observable-write set is a subset of its abstract one
// (γ_C.Obs(t, x) ⊆ γ_A.Obs(t, x)).  Operationally we require the client
// operation histories to be *equal* (the simulation game makes the abstract
// client mirror concrete client steps one-for-one, which is how the paper's
// simulations are constructed too) and Obs inclusion then reduces to a
// pointwise viewfront-rank comparison.
//
// Definition 8 (forward simulation for synchronisation-free clients) is
// decided as a simulation *game* on the product of the two finite state
// graphs: candidate pairs are those satisfying the client-observation clause;
// the greatest fixpoint removes every pair with a concrete step that can be
// matched neither by an abstract stutter nor by a single abstract step.  The
// simulation exists iff the initial pair survives (Theorem 8.1 then gives
// C[AO] ⊑ C[CO]).
//
// A bounded trace-inclusion checker for Definitions 6/7 (stutter-free client
// traces) doubles as an independent oracle on small instances.
//
// Both checkers run over one GraphPair (build_graph_pair) and share the
// verdict contract of og::OutlineCheckResult::valid: `holds == false` only
// for a definite refutation — over a complete graph pair, or a witnessed
// violation on a sampled concrete graph.  A check on incomplete graphs (or
// past its own bound) that finds nothing reports holds == true,
// truncated == true: inconclusive, never a proof.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/budget.hpp"
#include "engine/run.hpp"
#include "lang/config.hpp"
#include "witness/witness.hpp"

namespace rc11::refinement {

using lang::Config;
using lang::System;
using lang::ThreadId;

/// The Definition 5 client projection of a configuration.
struct ClientProjection {
  /// Exact-match part: client registers and the full client-variable
  /// operation histories including covered flags (equal histories ⇒ equal
  /// cvd, which Def. 5 requires).
  std::vector<std::uint64_t> exact;
  /// Inclusion part: per (thread, client variable) viewfront ranks; the
  /// concrete entry must be >= the abstract entry (higher viewfront = fewer
  /// observable writes).
  std::vector<std::uint32_t> view_ranks;

  friend bool operator==(const ClientProjection&, const ClientProjection&) = default;
};

/// Extracts the client projection (client-tagged registers and locations
/// only; library state and pcs are invisible to the client).
[[nodiscard]] ClientProjection project_client(const System& sys, const Config& cfg);

/// Definition 5: does `conc` refine `abs`?
[[nodiscard]] bool client_refines(const ClientProjection& abs,
                                  const ClientProjection& conc);

/// An explicit reachable-state graph of a system.
struct StateGraph {
  std::vector<Config> states;
  std::vector<std::vector<std::uint32_t>> succ;  ///< adjacency (state indices)
  /// Per-edge human-readable step labels, parallel to `succ` (only when the
  /// graph was built with want_labels; empty otherwise).
  std::vector<std::vector<std::string>> labels;
  /// Per-edge acting thread, parallel to `succ` (want_labels builds only);
  /// lets counterexample runs over this graph become replayable witnesses.
  std::vector<std::vector<ThreadId>> threads;
  std::uint32_t initial = 0;
  /// Why the build's exploration ended; anything but Complete means the
  /// graph is missing states and downstream verdicts are unreliable.
  engine::StopReason stop = engine::StopReason::Complete;

  [[nodiscard]] std::size_t num_states() const { return states.size(); }
  [[nodiscard]] std::size_t num_edges() const {
    std::size_t n = 0;
    for (const auto& e : succ) n += e.size();
    return n;
  }
};

/// One graph build's options: the run settings plus edge labels (step
/// descriptions and acting threads, for counterexamples and DOT export).
/// The build honours the budgets, num_threads, por, mode/sample, cancel and
/// fault, and rejects workers, rf_quotient, checkpoint_path and resume with
/// a support::Error.  It never quotients the graph: `symmetry` is read only
/// by check_trace_inclusion's product.
struct GraphOptions : engine::RunOptions {
  bool want_labels = false;
};

/// Builds the reachable graph of `sys` (up to max_states).
///
/// The build runs in two phases for every thread count —
/// collect all reachable states through the shared reachability driver,
/// then resolve every state's successor edges against the index — and
/// numbers states by canonical encoding, so the resulting graph is
/// *identical for every thread count*.
///
/// With `por`, both phases use the ClientInvisible ample policy of
/// engine::SystemTransitions: states are collected over the reduced relation
/// and every edge is a real single step of that same relation (no chain
/// collapse — graph consumers need single-step edges), so counterexample
/// runs over a reduced graph still replay through the full semantics.
/// Reduced here means only projection-invisible steps are ever pruned, which
/// preserves the stutter-closed projection traces the refinement checkers
/// compare (docs/SEMANTICS.md §9).
///
/// Under Strategy::Sample phase 1 collects the states seeded random
/// episodes cross and phase 2 resolves edges within that subset (edges to
/// uncollected states are dropped — the same rule every truncated build
/// follows).  Every state and edge of a sampled graph is real; its stop is
/// StopReason::EpisodeCap because it may be missing states.
[[nodiscard]] StateGraph build_graph(const System& sys,
                                     const GraphOptions& options = {});

/// Both state graphs of a refinement check plus every state's client
/// projection, built once for both checkers.  Points at the two systems,
/// so it must not outlive them.
struct GraphPair {
  const System* abstract_sys = nullptr;
  const System* concrete_sys = nullptr;
  /// The specification: exhaustive (a sampled spec would manufacture false
  /// violations) and unlabelled.
  StateGraph abstract_graph;
  StateGraph concrete_graph;  ///< labelled; the only graph ever sampled
  /// Parallel to the graphs' states; empty when the pair cannot decide (an
  /// incomplete abstract graph, or a concrete one cut short by anything but
  /// the sampling budget).
  std::vector<ClientProjection> abstract_proj;
  std::vector<ClientProjection> concrete_proj;
};

/// Builds the pair, the abstract graph first.  Budgets bound each build
/// separately; the cancellation token is shared, so one Ctrl-C stops
/// whichever build runs.  Projections run on num_threads workers.
[[nodiscard]] GraphPair build_graph_pair(const System& abstract_sys,
                                         const System& concrete_sys,
                                         const engine::RunOptions& options);

/// The Def. 8 simulation check's options: the run settings only.  The
/// fixpoint needs the full concrete edge relation (missing edges would let
/// pairs survive vacuously), so a sampled check is always inconclusive.
/// `symmetry` is rejected: quotienting the fixpoint would change which
/// pairs the diagnosis chain can cite.
struct SimulationOptions : engine::RunOptions {};

struct SimulationResult {
  bool holds = false;
  bool truncated = false;  ///< a graph stopped early: holds is inconclusive
  std::uint64_t abstract_states = 0;
  std::uint64_t concrete_states = 0;
  std::uint64_t candidate_pairs = 0;
  std::uint64_t surviving_pairs = 0;
  std::uint64_t refinement_iterations = 0;
  /// Human-readable failure hint, or why a truncated check could not
  /// decide.
  std::string diagnosis;
  /// On failure: step labels of a shortest concrete run into a state no
  /// abstract state can be paired with (empty if the failure is only due to
  /// cyclic matching constraints rather than a dead state).
  std::vector<std::string> counterexample;
  /// Structured form of `counterexample`: a replayable run of the *concrete*
  /// system into the diverging state (validate with witness::replay against
  /// concrete_sys).  Present iff counterexample is non-empty.
  std::optional<witness::Witness> witness;
};

/// Decides whether a Definition 8 forward simulation exists between
/// `abstract_sys` (the client using AO) and `concrete_sys` (the same client
/// using CO).  `holds == true` on a complete pair establishes
/// C[AO] ⊑ C[CO] for this client (Theorem 8.1).
[[nodiscard]] SimulationResult check_forward_simulation(const GraphPair& pair);

/// build_graph_pair, then the check above.  Throws support::Error under
/// `symmetry`.
[[nodiscard]] SimulationResult check_forward_simulation(
    const System& abstract_sys, const System& concrete_sys,
    const SimulationOptions& options = {});

/// The trace-inclusion game's options: the run settings plus the product
/// bound.  Under Strategy::Sample only the *concrete* graph is sampled and
/// the game runs over the covered concrete subgraph: every sampled concrete
/// run is a real execution, so a refinement violation found this way is
/// *definite* — holds == false with a replayable witness — while "no
/// violation" stays inconclusive (truncated == true, a lower bound).
///
/// `symmetry` quotients the *product* construction: when both systems have
/// identical interchangeable-thread classes (engine::SymmetryReducer),
/// product nodes (concrete state, abstract match set) are deduplicated
/// modulo simultaneous thread permutation of both sides.  Client
/// projections permute covariantly, so refinement of a node and of its
/// permuted image coincide and an empty match set is reachable in the
/// quotient iff it is in the full product — verdicts and witnesses are
/// unchanged, only product_nodes shrinks (arena nodes stay concrete, so
/// counterexample runs replay as before).  A sound no-op when either system
/// has no interchangeable threads or the classes differ; ignored under a
/// sampled concrete graph (the permuted image of a sampled state need not
/// be covered).  Composes with `por` under the same corpus-crosschecked
/// caveat as por itself.
struct TraceInclusionOptions : engine::RunOptions {
  std::uint64_t max_product_nodes = 500'000;  ///< subset-construction bound
};

struct TraceInclusionResult {
  bool holds = false;
  /// A graph stopped early, the concrete graph is a sample, or the product
  /// bound was hit: holds == true is then a lower bound, not a proof.
  bool truncated = false;
  std::uint64_t product_nodes = 0;  ///< (concrete state, abstract set) nodes
  /// Description of an unmatchable concrete step, or why a truncated game
  /// could not decide.
  std::string what;
  /// Replayable concrete run ending in the unmatchable step (validate with
  /// witness::replay against concrete_sys).  Present iff holds is false and
  /// the game reached a genuinely unmatchable step (not on truncation).
  std::optional<witness::Witness> witness;
};

/// Definitions 6/7 as a trace-inclusion game, decided by subset construction:
/// for every concrete run there must exist an abstract run that pointwise
/// refines it (Def. 5's ⊑ per state, with the abstract side free to stutter).
/// Tracks, for each concrete trace prefix, the set of abstract states that
/// can match it; a reachable empty set is a refinement violation and its
/// step is reported as the witness.  This is the direct (game) form of
/// Definition 6; check_forward_simulation is the paper's sufficient
/// condition (Def. 8 / Thm. 8.1) and implies it.
[[nodiscard]] TraceInclusionResult check_trace_inclusion(
    const GraphPair& pair, const TraceInclusionOptions& options = {});

/// build_graph_pair, then the game above.
[[nodiscard]] TraceInclusionResult check_trace_inclusion(
    const System& abstract_sys, const System& concrete_sys,
    const TraceInclusionOptions& options = {});

}  // namespace rc11::refinement
