// rc11lib/engine/sample.hpp
//
// The third exploration strategy next to exhaustive search and ample-set
// POR: feedback-guided randomized *sampling* of whole schedules, in the
// C11Tester style.  Instead of enumerating the reachable state space, the
// sampling driver runs `episodes` complete executions of the semantics; at
// every configuration it draws the next thread from a seeded weighted RNG
// (and, because lang::successors enumerates memory nondeterminism as
// separate steps, a second draw *within* the chosen thread's steps picks
// the reads-from / placement / CAS option), then moves on.  Guided biasing
// down-weights (thread, pc) sites proportionally to how often they have
// already been executed, so rarely-taken branches — and threads stuck
// behind a spin loop that keeps winning the draw — get revisited instead of
// resampled; the within-thread draw is rarity-weighted the same way, keyed
// (thread, pc, choice index), so episodes drift towards the stale reads
// that distinguish weak behaviours instead of re-reading the latest write.
// With guided off both draws are uniform.
//
// Exhaustive exploration stays the oracle: on instances small enough to
// enumerate, sampling with enough episodes visits a subset of the exhaustive
// state set and agrees on every violation it finds.  Beyond exhaustive
// reach (~10^6-10^7 states), sampling is the only mode that still produces
// verdicts — always honest ones: a sampling run that finds no violation
// ends with StopReason::EpisodeCap, i.e. "results are a lower bound", never
// with a completeness claim.
//
// Composition with the existing subsystems (see engine/reach.hpp for the
// driver contract):
//   * budgets     — Budget::max_states caps *distinct* states (the coverage
//                   estimate), deadlines and memory caps are probed during
//                   episodes, and the episode count itself is the new
//                   EpisodeCap stop reason;
//   * witnesses   — with a trace sink every sampled step is interned via
//                   resolve_traced, so a violating episode is a replayable
//                   witness exactly like an exhaustive one;
//   * checkpoints — there is no meaningful frontier to checkpoint (the
//                   coverage set plus the RNG/bias state is not a resumable
//                   work list), so ReachOptions::resume and checkpoint
//                   requests are *rejected loudly* under sampling
//                   (unsupported_combination, engine/reach.hpp) instead of
//                   silently producing a wrong continuation.
//
// Episodes run sequentially regardless of ReachOptions::num_threads: the
// guided bias makes episode e depend on every episode before it, so a
// parallel schedule would break seed determinism — and same seed ==> same
// run, byte for byte, is the property CI enforces.

#pragma once

#include <cstdint>

namespace rc11::engine {

/// How the reachability driver covers the state space: Exhaustive
/// enumerates every reachable state (over the ample-reduced relation when
/// ReachOptions::por is set); Sample draws random schedules instead and
/// covers a subset.
enum class Strategy : std::uint8_t {
  Exhaustive,  ///< full enumeration (the historic default)
  Sample,      ///< seeded weighted random schedules (episodes)
};

/// Tuning knobs for Strategy::Sample.
struct SampleOptions {
  /// Schedules to run end-to-end.  The CLI spelling `--strategy sample:N`
  /// sets this; a sampling run that exhausts it stops with
  /// StopReason::EpisodeCap (sampling never claims completeness).
  std::uint64_t episodes = 4096;
  /// RNG seed.  Same program + same options + same seed reproduces the run
  /// exactly — schedules, coverage, verdicts and stats.
  std::uint64_t seed = 0;
  /// Feedback-guided biasing: down-weight (thread, pc) sites — and, within
  /// the drawn thread, (thread, pc, choice index) memory-nondeterminism
  /// alternatives — by how often they have already executed, across and
  /// within episodes.  Off = both draws are uniform.
  bool guided = true;
};

/// Per-episode schedule-length cap, the spin-loop safety valve: an episode
/// that has not reached a final or blocked configuration after this many
/// steps is abandoned (it still counts as an episode; its states stay in
/// the coverage set).  Generous against the corpus (complete schedules
/// there run tens to hundreds of steps) while still bounding a
/// pathological all-spin schedule.
inline constexpr std::uint64_t kDefaultEpisodeStepCap = 20'000;

}  // namespace rc11::engine
