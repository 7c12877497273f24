// rc11lib/engine/sample.cpp
//
// The Strategy::Sample reachability driver: seeded, feedback-guided random
// schedules in the C11Tester style (see sample.hpp for the design and
// composition notes).  Episodes are strictly sequential — the guided bias
// makes every episode depend on all earlier ones, and same seed ==> same
// run, byte for byte, is the property CI enforces.

#include "engine/sample.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/reach.hpp"
#include "support/intern.hpp"

namespace rc11::engine {

namespace {

/// splitmix64 — hand-rolled so the draw sequence is identical on every
/// platform and standard library (std:: distributions make no such
/// guarantee, and the seed-determinism CI gate byte-compares reports).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform-enough draw in [0, n); n > 0.  The modulo bias is irrelevant
  /// for schedule sampling and keeps the draw a single deterministic op.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Numerator of the guided weight kWeightScale / (1 + hits): large enough
/// that a site needs ~a million executions before rounding to weight 0 (and
/// a floor below keeps even those drawable).
constexpr std::uint64_t kWeightScale = 1ULL << 20;

/// The guided weight of a site or choice executed `seen` times before,
/// floored at 1 so every enabled alternative stays drawable.
std::uint64_t rarity(std::uint64_t seen) noexcept {
  const std::uint64_t w = kWeightScale / (1 + seen);
  return w == 0 ? 1 : w;
}

/// Draws an index in [0, n) with probability weight_of(i) / Σ weight_of:
/// one rng.below over the summed weights, then a walk.  With unit weights
/// the walk returns rng.below(n) itself, so the uniform draw is this one
/// too.  A single alternative is returned without a draw.  `weights` is
/// scratch.
template <typename WeightOf>
std::size_t weighted_draw(SplitMix64& rng, std::size_t n,
                          std::vector<std::uint64_t>& weights,
                          WeightOf weight_of) {
  if (n <= 1) return 0;
  weights.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(weight_of(i));
    total += weights.back();
  }
  std::uint64_t r = rng.below(total);
  std::size_t pick = 0;
  while (r >= weights[pick]) {
    r -= weights[pick];
    pick += 1;
  }
  return pick;
}

/// One contiguous run of same-thread steps in a successor buffer, the unit
/// the weighted thread draw picks between.
struct ThreadRange {
  lang::ThreadId thread = 0;
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

}  // namespace

ReachResult sample_reach(const TransitionSystem& ts,
                         const ReachOptions& options,
                         const StateVisitor& visitor) {
  const System& sys = ts.system();
  ReachResult result;
  // Untraced runs keep a lock-free interned set; a trace sink replaces it
  // (resolve_traced assigns ids and records first-reach parent links, which
  // is what makes violating episodes replayable witnesses).
  support::InternedWordSet visited;
  const bool want_labels = options.want_labels || options.trace != nullptr;
  BudgetEnforcer enforcer(options.budget, options.cancel, options.fault,
                          [&]() -> std::uint64_t {
                            return options.trace ? options.trace->bytes()
                                                 : visited.bytes();
                          });
  SplitMix64 rng(options.sample.seed);
  // Guided bias: executions per (thread, pc) site, across and within
  // episodes.  Sites that keep winning the draw decay towards the weight
  // floor, so rare branches — and schedules past a spin loop — get sampled.
  std::unordered_map<std::uint64_t, std::uint64_t> hits;
  // Second guided layer: executions per (thread, pc, within-thread choice
  // index) — the reads-from / placement / CAS alternative drawn once a
  // thread won.  Kept in its own map so the thread-level bias above is
  // unchanged; the FNV fold is deterministic, and a (harmless, improbable)
  // key collision only perturbs a weight, never a verdict.
  std::unordered_map<std::uint64_t, std::uint64_t> choice_hits;
  const auto choice_site = [](lang::ThreadId thread, std::uint32_t pc,
                              std::size_t choice) noexcept {
    std::uint64_t key = 0xCBF29CE484222325ULL;
    key = (key ^ thread) * 0x100000001B3ULL;
    key = (key ^ pc) * 0x100000001B3ULL;
    key = (key ^ choice) * 0x100000001B3ULL;
    return key;
  };

  lang::StepBuffer steps;
  std::vector<std::uint64_t> scratch;
  std::vector<ThreadRange> ranges;
  std::vector<std::uint64_t> weights;
  std::uint64_t probe_clock = 0;  // steps since the last budget probe
  bool vetoed = false;

  // Interns `cfg`, returning {fresh, id-or-kNoState}.  First visits claim a
  // state from the budget (the state cap stays a distinct-state bound — the
  // coverage cap) via the caller.
  const auto intern = [&](const Config& cfg, std::uint64_t parent,
                          memsem::ThreadId thread, std::string&& label)
      -> std::pair<bool, std::uint64_t> {
    scratch.clear();
    cfg.encode_into(scratch);
    if (options.trace != nullptr) {
      const auto ins =
          options.trace->resolve_traced(scratch, parent, thread,
                                        std::move(label));
      return {ins.inserted, ins.id};
    }
    return {visited.resolve_ided(scratch).inserted,
            ShardedVisitedSet::kNoState};
  };

  for (std::uint64_t episode = 0; episode < options.sample.episodes;
       ++episode) {
    if (enforcer.probe() != StopReason::Complete || vetoed) break;
    Config cfg = ts.initial();
    auto [fresh, id] =
        intern(cfg, ShardedVisitedSet::kNoState, 0, "init");
    bool stop_run = false;
    for (std::uint64_t depth = 0; depth < kDefaultEpisodeStepCap; ++depth) {
      if (++probe_clock >= kBudgetCheckInterval) {
        probe_clock = 0;
        if (enforcer.probe() != StopReason::Complete) {
          stop_run = true;
          break;
        }
      }
      ts.successors_into(cfg, steps, want_labels);
      if (fresh) {
        // First visits claim a distinct state and see the visitor — the
        // same contract exhaustive drivers give, restricted to the covered
        // subgraph, so violation scanners and graph collectors work
        // unchanged.
        if (enforcer.claim() != StopReason::Complete) {
          stop_run = true;
          break;
        }
        result.stats.states += 1;
        result.stats.transitions += steps.size();
        if (steps.empty()) {
          (cfg.all_done(sys) ? result.stats.finals : result.stats.blocked) +=
              1;
        }
        if (!visitor(cfg, id, steps.steps())) {
          vetoed = true;
          break;
        }
      }
      if (steps.empty()) break;  // final or blocked: the episode is over

      // Group the buffer into per-thread runs (successors_into enumerates
      // thread by thread) and draw a thread, weighted by how rarely its
      // current site has executed; then draw within the thread —
      // lang::successors enumerates memory nondeterminism (reads-from,
      // placement, CAS outcome) as separate steps, so this second draw is
      // the reads-from choice.
      const std::span<const Step> enabled = steps.steps();
      ranges.clear();
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (ranges.empty() || ranges.back().thread != enabled[i].thread) {
          ranges.push_back({enabled[i].thread, i, i + 1});
        } else {
          ranges.back().end = i + 1;
        }
      }
      const auto site = [&](lang::ThreadId t) {
        return (static_cast<std::uint64_t>(t) << 32) |
               static_cast<std::uint64_t>(cfg.pc[t]);
      };
      // Guided draws weigh each alternative by its rarity; unguided ones
      // are uniform.
      const auto weight = [&](const auto& counts,
                              std::uint64_t key) -> std::uint64_t {
        if (!options.sample.guided) return 1;
        const auto it = counts.find(key);
        return rarity(it == counts.end() ? 0 : it->second);
      };
      const ThreadRange& chosen = ranges[weighted_draw(
          rng, ranges.size(), weights,
          [&](std::size_t i) { return weight(hits, site(ranges[i].thread)); })];
      // Rarity-weighted reads-from draw: the within-thread alternatives are
      // the memory-nondeterminism options (reads-from, placement, CAS
      // outcome) of one instruction, keyed (thread, pc, choice index) in
      // `choice_hits`.  A uniform draw keeps re-reading the latest write in
      // long mo sequences; inverse-hit-count weighting pushes episodes
      // towards the stale reads that distinguish weak behaviours.
      const std::uint32_t pc = cfg.pc[chosen.thread];
      const std::size_t si =
          chosen.begin +
          weighted_draw(rng, chosen.end - chosen.begin, weights,
                        [&](std::size_t c) {
                          return weight(choice_hits,
                                        choice_site(chosen.thread, pc, c));
                        });
      if (options.sample.guided) {
        hits[site(chosen.thread)] += 1;
        choice_hits[choice_site(chosen.thread, pc, si - chosen.begin)] += 1;
      }
      Step& step = steps.steps()[si];
      std::tie(fresh, id) =
          intern(step.after, id, step.thread, std::move(step.label));
      // The state left behind goes back into the pool with its capacity.
      std::swap(cfg, step.after);
    }
    if (stop_run) break;
    result.stats.episodes += 1;
    if (vetoed) break;
  }

  result.stats.visited_bytes =
      options.trace ? options.trace->bytes() : visited.bytes();
  result.stop = enforcer.reason();
  if (result.stop == StopReason::Complete && !vetoed) {
    // The full episode budget ran without a verdict-forcing event: honest
    // sampling never claims completeness, so the run reports EpisodeCap
    // ("results are a lower bound").  A visitor veto stays Complete —
    // stopping was the visitor's decision, exactly as in the exhaustive
    // drivers.
    result.stop = StopReason::EpisodeCap;
  }
  return result;
}

}  // namespace rc11::engine
