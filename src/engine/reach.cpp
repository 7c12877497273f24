#include "engine/reach.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/checkpoint.hpp"
#include "support/diagnostics.hpp"
#include "support/intern.hpp"
#include "support/parallel.hpp"

namespace rc11::engine {

namespace {

/// A frontier entry: the configuration plus its id in the trace sink (the
/// id stays kNoState when no sink is attached).
struct Frontier {
  Config cfg;
  std::uint64_t id = ShardedVisitedSet::kNoState;
  /// Sleeping-thread mask in this configuration's concrete thread
  /// coordinates (reduction paths only; 0 otherwise).
  std::uint64_t sleep = 0;
  /// Re-expansion of an already-visited state whose stored sleep mask
  /// strictly shrank (Godefroid's revisit rule): successors are reprocessed
  /// with the smaller mask, but the state is not re-counted, the visitor
  /// does not fire again, and no state claim is consumed.
  bool revisit = false;
};

/// Builds the run's state abstraction from the reduction options: the
/// symmetry orbit quotient, the execution-graph quotient, or — when neither
/// applies but the sleep-set path still needs masked keying — the concrete
/// identity abstraction.  Returns null when no reduced path is needed at
/// all.  visit_reachable has already rejected symmetry+rf_quotient.
std::unique_ptr<StateAbstraction> make_abstraction(const System& sys,
                                                   const ReachOptions& options,
                                                   bool sleep) {
  if (options.symmetry) {
    auto abs = make_symmetry_abstraction(sys);
    if (abs->nontrivial()) return abs;
    // No interchangeable threads: the orbit quotient is the identity, so
    // fall through to the cheaper paths.
  } else if (options.rf_quotient) {
    return make_rf_quotient_abstraction(sys, options.rf_pins);
  }
  if (sleep) return make_concrete_abstraction();
  return nullptr;
}

/// Heap footprint of a run's visited sets: the canonical set of a reduced
/// run, plus whichever set decides plain membership — the trace sink when
/// one is attached, otherwise the driver's own set (unused, and so not
/// counted, in untraced reduced runs).
template <typename Visited, typename Canon>
std::uint64_t sum_visited_bytes(const ReachOptions& options, bool reduced,
                                const Visited& visited, const Canon& canon) {
  std::uint64_t bytes = reduced ? canon.bytes() : 0;
  if (options.trace != nullptr) {
    bytes += options.trace->bytes();
  } else if (!reduced) {
    bytes += visited.bytes();
  }
  return bytes;
}

/// Seeds the visited sets and the frontier: the initial state, or — under
/// ReachOptions::resume — the checkpoint.  Every checkpointed state enters
/// the trace sink when one is attached (with its recorded parent link and
/// enqueued flag, so a later checkpoint of the resumed run is still
/// faithful), and every *enqueued* state goes on the frontier for
/// (re-)expansion.  Chain-internal POR states are interned but never
/// enqueued, exactly as the original run left them.  A frontier state is
/// recorded in the canonical set under its abstract key when the run is
/// reduced (`abs` non-null), else in the plain set unless the sink is the
/// visited set.  Canonical masks restart empty: resume re-expands every
/// enqueued state anyway, and the empty mask skips nothing — sound, only
/// pruning is lost.
template <typename Visited, typename Canon>
void seed_frontier(const TransitionSystem& ts, const ReachOptions& options,
                   const StateAbstraction* abs, Visited& visited, Canon& canon,
                   std::deque<Frontier>& frontier) {
  ShardedVisitedSet* const trace = options.trace;
  AbstractKey key;
  const auto enqueue = [&](Config cfg, std::uint64_t id,
                           std::span<const std::uint64_t> encoding) {
    if (abs != nullptr) {
      abs->key(cfg, key);
      canon.insert_masked(key.encoding, 0);
    } else if (trace == nullptr) {
      visited.insert(encoding);
    }
    frontier.push_back({std::move(cfg), id});
  };
  if (options.resume == nullptr) {
    Config init = ts.initial();
    const std::vector<std::uint64_t> encoding = init.encode();
    std::uint64_t id = ShardedVisitedSet::kNoState;
    if (trace != nullptr) {
      id = trace->insert_traced(encoding, ShardedVisitedSet::kNoState, 0,
                                "init")
               .id;
    }
    enqueue(std::move(init), id, encoding);
    return;
  }
  const Checkpoint& ckpt = *options.resume;
  std::vector<Config> configs = restore_states(ts, ckpt);
  std::vector<std::uint64_t> ids(configs.size(), ShardedVisitedSet::kNoState);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Checkpoint::State& state = ckpt.states[i];
    if (trace != nullptr) {
      const std::uint64_t parent =
          state.parent < 0 ? ShardedVisitedSet::kNoState
                           : ids[static_cast<std::size_t>(state.parent)];
      const auto ins =
          trace->insert_traced(state.encoding, parent, state.thread,
                               std::string(state.label), state.enqueued);
      RC11_REQUIRE(ins.inserted,
                   "resume requires an empty trace sink and a duplicate-free "
                   "checkpoint");
      ids[i] = ins.id;
    }
    // Untraced runs never intern chain-internal states; seeding only the
    // enqueued ones reproduces an uninterrupted untraced visited set.
    if (state.enqueued) enqueue(std::move(configs[i]), ids[i], state.encoding);
  }
}

// --- POR chain collapse ------------------------------------------------------

/// Fast-forwards `cfg` through its deterministic local ample chain without
/// recording the intermediate states; bumps `chained` once per skipped step.
/// Each step swaps the chain successor into `cfg` and the state it replaces
/// into the buffer slot, so both keep their heap capacity.
void collapse_untraced(const TransitionSystem& ts, Config& cfg,
                       StepBuffer& buf, std::uint64_t& chained) {
  while (const auto t = chain_thread(ts, cfg)) {
    ts.thread_successors_into(cfg, *t, buf, /*want_labels=*/false);
    std::swap(cfg, buf.steps()[0].after);
    chained += 1;
  }
}

/// Traced variant: interns every intermediate chain state into the sink as a
/// real single-step edge (so path_to / witness replay see ordinary
/// transitions) and advances `cfg` / `id` to the chain's stable end.
/// Returns false when an intermediate state was already interned — whichever
/// expansion interned it first also interned and enqueued the same
/// deterministic suffix, so the caller drops this duplicate branch.
bool collapse_traced(const TransitionSystem& ts, ShardedVisitedSet& sink,
                     Config& cfg, std::uint64_t& id, StepBuffer& buf,
                     std::vector<std::uint64_t>& scratch,
                     std::uint64_t& chained) {
  auto t = chain_thread(ts, cfg);
  while (t) {
    ts.thread_successors_into(cfg, *t, buf, /*want_labels=*/true);
    auto& step = buf.steps()[0];
    // Chain-internal states are interned (witnesses need the edges) but
    // never enqueued — a checkpoint must not resurrect them as frontier
    // work.  Only the chain's stable end, which the caller pushes onto the
    // frontier, is marked enqueued.
    const auto next = chain_thread(ts, step.after);
    scratch.clear();
    step.after.encode_into(scratch);
    const auto ins =
        sink.insert_traced(scratch, id, step.thread, std::move(step.label),
                           /*enqueued=*/!next.has_value());
    if (!ins.inserted) return false;
    id = ins.id;
    std::swap(cfg, step.after);
    chained += 1;
    t = next;
  }
  return true;
}

// --- one expansion step ------------------------------------------------------

/// One pool worker's expansion step, over the lock-free sets when the pool
/// has one worker and the sharded ones otherwise.  For a claimed frontier
/// item it runs expand_steps, counts the state into its own ExploreStats
/// (summed by the pool after join), calls the visitor and routes the
/// successors: through the plain loop (untraced, traced, POR chain
/// collapse) or, when a reduction is active, through process_steps_reduced.
/// Every successor to enqueue goes to the caller's push target, the
/// worker's own stack.  Each worker builds its own, in its own frame.
template <typename Visited, typename Canon>
class Expander {
 public:
  /// `abs` is the run's abstraction (null on the plain paths); the expander
  /// keys with its own clone, because key() reuses mutable scratch.
  Expander(const TransitionSystem& ts, const ReachOptions& options,
           const StateVisitor& visitor, const StateAbstraction* abs,
           bool sleep, Visited& visited, Canon& canon)
      : ts_(ts),
        options_(options),
        visitor_(visitor),
        abs_(abs != nullptr ? abs->clone() : nullptr),
        sleep_(sleep),
        want_labels_(options.want_labels || options.trace != nullptr),
        collapse_(options.por && ts.collapse_chains()),
        visited_(visited),
        canon_(canon) {}

  /// Expands `item`, passing every successor to enqueue to `push`, and
  /// returns the visitor's verdict.  A mask-shrink revisit (Godefroid's
  /// revisit rule) regenerates the same successor set — expansion is a pure
  /// function of the configuration — and reprocesses it with the smaller
  /// mask: no stats, no visitor, since the state was visited once already.
  template <typename Push>
  bool expand(Frontier& item, Push&& push) {
    const Config& cfg = item.cfg;
    bool keep_going = true;
    if (item.revisit) {
      (void)expand_steps(ts_, cfg, options_, steps_, want_labels_);
    } else {
      stats_.states += 1;
      if (expand_steps(ts_, cfg, options_, steps_, want_labels_)) {
        stats_.por_reduced += 1;
      }
      if (steps_.empty()) {
        (cfg.all_done(ts_.system()) ? stats_.finals : stats_.blocked) += 1;
      }
      stats_.transitions += steps_.size();
      keep_going = visitor_(cfg, item.id, steps_.steps());
    }
    if (abs_ != nullptr) {
      process_steps_reduced(item, push);
    } else {
      process_steps(item, push);
    }
    // The expanded state's storage backs the next enqueued successor.
    steps_.retire(std::move(item.cfg));
    return keep_going;
  }

  [[nodiscard]] const ExploreStats& stats() const { return stats_; }

 private:
  /// The plain successor path.  Successors are encoded in place and leave
  /// the step buffer (take) only when enqueued: a duplicate keeps its slot's
  /// capacity, and an enqueued one's slot is refilled from retired storage.
  template <typename Push>
  void process_steps(const Frontier& item, Push& push) {
    ShardedVisitedSet* const trace = options_.trace;
    for (auto& step : steps_.steps()) {
      Config& after = step.after;
      if (trace != nullptr) {
        // A successor that opens a deterministic chain is itself
        // chain-internal: collapse will fast-forward through it and enqueue
        // the chain's end instead.
        const bool chain_start =
            collapse_ && chain_thread(ts_, after).has_value();
        scratch_.clear();
        after.encode_into(scratch_);
        const auto ins =
            trace->insert_traced(scratch_, item.id, step.thread,
                                 std::move(step.label),
                                 /*enqueued=*/!chain_start);
        if (!ins.inserted) continue;
        std::uint64_t id = ins.id;
        if (collapse_ && !collapse_traced(ts_, *trace, after, id, chain_steps_,
                                          scratch_, stats_.por_chained)) {
          continue;
        }
        push(Frontier{steps_.take(step), id});
      } else {
        if (collapse_) {
          collapse_untraced(ts_, after, chain_steps_, stats_.por_chained);
        }
        scratch_.clear();
        after.encode_into(scratch_);
        if (visited_.insert(scratch_)) {
          push(Frontier{steps_.take(step), ShardedVisitedSet::kNoState});
        }
      }
    }
  }

  /// The successor path when any reduction — a state abstraction (symmetry
  /// orbit or execution-graph quotient) and/or sleep sets — is active.
  /// Differences from the plain path:
  ///
  ///   * Membership is decided in the canonical set (SeqMaskedSet for one
  ///     worker, a dedicated ShardedVisitedSet for more), keyed by
  ///     the abstraction's abstract key (the concrete encoding for the
  ///     identity abstraction of the sleep-only path), with per-state sleep
  ///     masks (all zero when sleep sets are off).
  ///   * With a trace sink, every concrete successor is interned with
  ///     enqueued=false via resolve_traced, and the *canonical-set winner*
  ///     flips the flag via mark_enqueued: the expansion race between orbit
  ///     mates is decided in the canonical set, while the sink stays a
  ///     faithful forest of really-taken steps (witnesses and checkpoints
  ///     are concrete, so replay needs no permutation arithmetic).
  ///   * Traced chain collapse walks *through* already-interned
  ///     intermediates instead of early-dropping: under sleep sets the chain
  ///     end's canonical mask meet must happen even when the concrete chain
  ///     was walked before.
  ///   * Counters are bumped on first expansions only: a revisit's
  ///     successors were counted when the state was first expanded.
  ///
  /// Sleep-set bookkeeping (Godefroid, adapted to thread-level masks over
  /// meta-homogeneous runs — a thread's enabled steps at one configuration
  /// all come from one instruction, so they share one footprint): a
  /// sleeping thread's whole run is skipped; the child of run t inherits
  /// every thread of (sleep ∪ earlier-processed-runs) \ {t} that commutes
  /// with t.  Masks attached to abstract states must be closed under the
  /// state's automorphisms, hence the mask_to_abstract intersection over all
  /// permutations the key reports — and a forced empty mask when the key's
  /// permutation set may be incomplete (AbstractKey::complete false).
  /// Abstractions that keep concrete thread coordinates (Concrete,
  /// RfQuotient) report no permutations, so both transports are the
  /// identity there.  Expansion uses the *stored* abstract mask pulled back
  /// through the first reported permutation, never the larger concrete child
  /// mask: the stored mask is what later arrivals are judged against.
  /// DESIGN.md (symmetry + sleep section) gives the full argument.
  template <typename Push>
  void process_steps_reduced(const Frontier& item, Push& push) {
    ShardedVisitedSet* const trace = options_.trace;
    const bool count_stats = !item.revisit;
    const std::span<lang::Step> steps = steps_.steps();
    std::uint64_t mask = 0;
    if (sleep_) {
      std::uint64_t enabled = 0;
      for (const auto& step : steps) {
        if ((enabled >> step.thread & 1ULL) == 0) {
          meta_[step.thread] = step.meta;
          enabled |= 1ULL << step.thread;
        }
      }
      // A sleep entry stands for a specific postponed step; a sleeping
      // thread with no enabled run here has nothing to postpone and is
      // dropped.
      mask = item.sleep & enabled;
    }
    std::uint64_t earlier = 0;
    std::size_t i = 0;
    while (i < steps.size()) {
      const ThreadId t = steps[i].thread;
      std::size_t j = i;
      while (j < steps.size() && steps[j].thread == t) ++j;
      if (sleep_ && (mask >> t & 1ULL) != 0) {
        // The run is asleep: a commuted exploration order covers it.
        if (count_stats) stats_.sleep_set_skips += j - i;
        i = j;
        continue;
      }
      std::uint64_t child_sleep = 0;
      if (sleep_) {
        std::uint64_t base = (mask | earlier) & ~(1ULL << t);
        while (base != 0) {
          const auto u = static_cast<unsigned>(std::countr_zero(base));
          base &= base - 1;
          if (steps_independent(meta_[u], meta_[t])) {
            child_sleep |= 1ULL << u;
          }
        }
        earlier |= 1ULL << t;
      }
      for (std::size_t k = i; k < j; ++k) {
        // Keyed in place: `after` leaves the step buffer (take) only when
        // it is enqueued, so a duplicate keeps its slot's capacity for the
        // next expansion (chain walking swaps states with the chain buffer).
        lang::Step& step = steps[k];
        Config& after = step.after;
        std::uint64_t concrete_id = ShardedVisitedSet::kNoState;
        bool concrete_new = false;
        if (trace != nullptr) {
          std::uint64_t parent = item.id;
          memsem::ThreadId acting = step.thread;
          std::string& label = step.label;
          if (collapse_) {
            while (const auto ct = chain_thread(ts_, after)) {
              scratch_.clear();
              after.encode_into(scratch_);
              parent = trace
                           ->resolve_traced(scratch_, parent, acting,
                                            std::move(label),
                                            /*enqueued=*/false)
                           .id;
              if (count_stats) stats_.por_chained += 1;
              ts_.thread_successors_into(after, *ct, chain_steps_,
                                         /*want_labels=*/true);
              auto& cstep = chain_steps_.steps()[0];
              std::swap(after, cstep.after);
              acting = cstep.thread;
              std::swap(label, cstep.label);
            }
          }
          scratch_.clear();
          after.encode_into(scratch_);
          const auto cins = trace->resolve_traced(
              scratch_, parent, acting, std::move(label), /*enqueued=*/false);
          concrete_id = cins.id;
          concrete_new = cins.inserted;
        } else if (collapse_) {
          std::uint64_t walked = 0;
          collapse_untraced(ts_, after, chain_steps_, walked);
          if (count_stats) stats_.por_chained += walked;
        }
        abs_->key(after, key_);
        std::uint64_t cmask = 0;
        if (sleep_) {
          cmask = key_.complete ? mask_to_abstract(child_sleep, key_) : 0;
        }
        const auto r = canon_.insert_masked(key_.encoding, cmask);
        if (!r.inserted && count_stats) {
          if (abs_->kind() == StateAbstraction::Kind::Symmetry &&
              !key_is_identity(key_)) {
            stats_.symmetry_hits += 1;
          } else if (abs_->kind() == StateAbstraction::Kind::RfQuotient &&
                     concrete_new) {
            // A concrete state the sink had never seen folded into a
            // visited quotient class.  Only a trace sink can tell a
            // genuinely new concrete state from a re-arrival, so untraced
            // runs report 0.
            stats_.rf_merges += 1;
          }
        }
        if (!r.inserted && !r.expand) continue;
        std::uint64_t fmask = 0;
        if (sleep_) fmask = mask_from_abstract(r.mask, key_);
        if (trace != nullptr && r.inserted) trace->mark_enqueued(concrete_id);
        push(Frontier{steps_.take(step), concrete_id, fmask,
                      /*revisit=*/!r.inserted});
      }
      i = j;
    }
  }

  const TransitionSystem& ts_;
  const ReachOptions& options_;
  const StateVisitor& visitor_;
  const std::unique_ptr<StateAbstraction> abs_;
  const bool sleep_;
  const bool want_labels_;
  const bool collapse_;
  Visited& visited_;  ///< the plain untraced paths' visited set
  Canon& canon_;      ///< the reduced paths' (masked) visited set
  ExploreStats stats_;
  lang::StepBuffer steps_;        // pooled successor storage
  lang::StepBuffer chain_steps_;  // separate pool: collapse runs mid-loop
  std::vector<std::uint64_t> scratch_;  // reusable encoding buffer
  AbstractKey key_;
  /// Per-thread run metadata of the expansion in flight (valid only under
  /// sleep sets, which require <= 64 threads).
  std::array<lang::StepMeta, 64> meta_{};
};

/// Merges one worker's counters into the pool's total: sums, except the
/// peak frontier, which is the largest backlog any one worker held.
void add_counts(ExploreStats& total, const ExploreStats& part) {
  total.peak_frontier = std::max(total.peak_frontier, part.peak_frontier);
  total.states += part.states;
  total.transitions += part.transitions;
  total.finals += part.finals;
  total.blocked += part.blocked;
  total.por_reduced += part.por_reduced;
  total.por_chained += part.por_chained;
  total.symmetry_hits += part.symmetry_hits;
  total.rf_merges += part.rf_merges;
  total.sleep_set_skips += part.sleep_set_skips;
}

// --- the worker pool ---------------------------------------------------------

/// The reachability driver.  Each of `workers` threads pops the newest entry
/// of its own private stack and pushes the successors back onto it, taking
/// no lock.  A worker that runs dry registers as idle under the one mutex
/// and waits for the hand-off deque; a busy worker that sees `hungry` after
/// an expansion moves the oldest half of its stack there.  The run ends when
/// every worker is idle with the hand-off deque empty, or when a budget stop
/// or a visitor veto raises `stop`.  States left on any stack stay interned
/// and marked enqueued, so a checkpoint still covers them.
///
/// One worker is the sequential search: the seed goes onto worker 0's
/// stack, nothing ever registers idle and no lock is taken, so states are
/// claimed, expanded and (in a trace sink) numbered in one fixed order.
template <typename Visited, typename Canon>
ReachResult pool_reach(const TransitionSystem& ts, const ReachOptions& options,
                       const StateVisitor& visitor,
                       const StateAbstraction* abs, bool sleep,
                       unsigned workers) {
  // The plain untraced paths' visited set; a trace sink replaces it, so
  // parent recording and the once-only insert decision are one step.
  Visited visited;
  // The reduced paths' visited set, keyed by abstract key with per-state
  // sleep masks: *the* visited set of untraced reduced runs, and the
  // expansion-ownership side set of traced ones (the sink stays concrete).
  Canon canon;
  const bool reduced = abs != nullptr;
  // Every popped state claims one index; a claim beyond a limit records the
  // stop reason instead of being expanded.
  BudgetEnforcer enforcer(options.budget, options.cancel, options.fault, [&] {
    return sum_visited_bytes(options, reduced, visited, canon);
  });
  std::deque<Frontier> seed;
  seed_frontier(ts, options, abs, visited, canon, seed);
  std::vector<ExploreStats> parts(workers);  // each worker's, merged at join

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frontier> handoff;  // guarded by mu
  unsigned idle = 0;             // guarded by mu
  // Some worker is idle and the hand-off deque is empty.  Written under mu;
  // busy workers read it without the lock.
  std::atomic<bool> hungry{false};
  std::atomic<bool> stop{false};

  const auto halt = [&] {
    stop.store(true, std::memory_order_relaxed);
    if (workers == 1) return;  // nobody waits
    // Under the lock, so no waiter can miss the flag between check and wait.
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  };
  // Waits idle until the hand-off deque has work and takes this worker's
  // share of it; false once the run is over.
  const auto refill = [&](std::deque<Frontier>& stack) {
    std::unique_lock<std::mutex> lock(mu);
    idle += 1;
    while (handoff.empty()) {
      if (stop.load(std::memory_order_relaxed) || idle == workers) {
        cv.notify_all();
        return false;
      }
      hungry.store(true, std::memory_order_relaxed);
      cv.wait(lock);
    }
    for (std::size_t n = (handoff.size() + idle - 1) / idle; n > 0; --n) {
      stack.push_back(std::move(handoff.front()));
      handoff.pop_front();
    }
    idle -= 1;
    hungry.store(idle > 0 && handoff.empty(), std::memory_order_relaxed);
    return true;
  };
  const auto donate = [&](std::deque<Frontier>& stack) {
    std::lock_guard<std::mutex> lock(mu);
    if (!hungry.load(std::memory_order_relaxed)) return;  // fed already
    for (std::size_t n = stack.size() / 2; n > 0; --n) {
      handoff.push_back(std::move(stack.front()));
      stack.pop_front();
    }
    hungry.store(false, std::memory_order_relaxed);
    cv.notify_all();
  };

  const auto worker = [&](unsigned w, std::deque<Frontier> stack) {
    Expander<Visited, Canon> expander(ts, options, visitor, abs, sleep,
                                      visited, canon);
    const auto push = [&](Frontier&& f) { stack.push_back(std::move(f)); };
    std::uint64_t peak = 0;
    while (!stack.empty() || (workers > 1 && refill(stack))) {
      if (stop.load(std::memory_order_relaxed)) break;
      // A revisit consumes no state claim.
      if (const StopReason gate = stack.back().revisit ? enforcer.probe()
                                                       : enforcer.claim();
          gate != StopReason::Complete) {
        halt();
        break;
      }
      peak = std::max<std::uint64_t>(peak, stack.size());
      Frontier item = std::move(stack.back());
      stack.pop_back();
      if (!expander.expand(item, push)) {
        halt();
        break;
      }
      if (hungry.load(std::memory_order_relaxed) && stack.size() > 1) {
        donate(stack);
      }
    }
    parts[w] = expander.stats();
    parts[w].peak_frontier = peak;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back(worker, w, std::deque<Frontier>{});
  }
  worker(0, std::move(seed));
  for (auto& t : pool) t.join();

  ReachResult result;
  for (const ExploreStats& part : parts) add_counts(result.stats, part);
  result.stats.visited_bytes =
      sum_visited_bytes(options, reduced, visited, canon);
  result.stop = enforcer.reason();
  return result;
}

}  // namespace

// Declared in reach.hpp: chain collapse must be a pure function of `cfg` so
// every worker, trace mode *and process* (the supervised driver's
// workers, engine/supervise.cpp) collapses identically.  Chains terminate
// because every chain step strictly increases the acting thread's pc (the
// ample proviso) and touches no other thread's pc.
std::optional<lang::ThreadId> chain_thread(const TransitionSystem& ts,
                                           const Config& cfg) {
  const auto t = ts.ample_thread(cfg);
  if (!t) return std::nullopt;
  switch (ts.system().code(*t)[cfg.pc[*t]].kind) {
    case lang::IKind::Assign:
    case lang::IKind::Branch:
    case lang::IKind::Jump:
      return t;
    default:
      return std::nullopt;
  }
}

bool expand_steps(const TransitionSystem& ts, const Config& cfg,
                  const ReachOptions& options, StepBuffer& out,
                  bool want_labels) {
  if (options.por) {
    if (const auto t = ts.ample_thread(cfg)) {
      ts.thread_successors_into(cfg, *t, out, want_labels);
      // An empty ample set (the eligible thread's step turned out disabled)
      // must not hide the other threads' steps: fall through to full
      // expansion.  Cannot happen for the current eligibility rules (local
      // steps and plain accesses are always enabled), but stays sound if
      // they ever widen.
      if (!out.empty()) return true;
    }
  }
  ts.successors_into(cfg, out, want_labels);
  return false;
}

std::string unsupported_combination(Strategy mode, bool por, bool symmetry,
                                    bool rf_quotient, bool checkpoint,
                                    bool resume) {
  if (symmetry && rf_quotient) {
    return "--symmetry and --rf-quotient cannot be combined: the engine "
           "cannot transport sleep masks through two state quotients at once "
           "— pick one reduction";
  }
  if (mode != Strategy::Sample) return {};
  // A sampling run replays concrete schedules: it has no quotient to key
  // states by and no frontier to save or continue from.
  if (por) {
    return "--por cannot be combined with --strategy sample; pick one "
           "coverage strategy";
  }
  for (const auto& [flag, on] : {std::pair{"--symmetry", symmetry},
                                 std::pair{"--rf-quotient", rf_quotient}}) {
    if (on) {
      return std::string(flag) +
             " cannot be combined with --strategy sample: the sampling "
             "strategy replays concrete schedules and cannot quotient states "
             "(drop one of the two)";
    }
  }
  if (checkpoint) {
    return "--checkpoint is not supported under --strategy sample: a "
           "sampling run has no frontier to save";
  }
  if (resume) {
    return "--resume is not supported under --strategy sample: a sampling "
           "run has no frontier to continue from (re-run with a fresh seed "
           "instead)";
  }
  return {};
}

ReachResult visit_reachable(const TransitionSystem& ts,
                            const ReachOptions& options,
                            const StateVisitor& visitor) {
  const std::string conflict = unsupported_combination(
      options.mode, options.por, options.symmetry, options.rf_quotient,
      /*checkpoint=*/false, options.resume != nullptr);
  support::require(conflict.empty(), conflict);
  if (options.rf_quotient) {
    support::require(
        ts.system().options().model != memsem::MemoryModel::SC,
        "--rf-quotient requires the RC11 RAR model: under SC every access "
        "synchronises, so the quotient's view projection would drop "
        "observable state (drop --rf-quotient or the SC model)");
  }
  if (options.mode == Strategy::Sample) {
    return sample_reach(ts, options, visitor);
  }
  if (options.resume != nullptr) {
    // The enqueued set is a function of the reduction: a checkpoint taken
    // under POR seeds a different frontier than a full run needs (and vice
    // versa), and each quotient decides which orbit or class representative
    // was interned and enqueued — so the settings must agree.  The thread
    // count is free to change: it never affects which states are enqueued.
    const struct {
      const char* flag;
      bool recorded;
      bool requested;
    } settings[] = {
        {"--por", options.resume->por, options.por},
        {"--symmetry", options.resume->symmetry, options.symmetry},
        {"--rf-quotient", options.resume->rf_quotient, options.rf_quotient},
    };
    for (const auto& setting : settings) {
      support::require(setting.recorded == setting.requested,
                       "checkpoint was recorded with ", setting.flag, " ",
                       setting.recorded ? "on" : "off",
                       " but this run has it ",
                       setting.requested ? "on" : "off",
                       "; resume must use the same reduction setting");
    }
  }
  // Sleep sets keep one mask bit per thread.
  const bool sleep = options.sleep_sets && ts.system().num_threads() <= 64;
  const std::unique_ptr<StateAbstraction> abs =
      make_abstraction(ts.system(), options, sleep);
  const unsigned workers = support::resolve_num_threads(options.num_threads);
  if (workers <= 1) {
    return pool_reach<support::InternedWordSet, SeqMaskedSet>(
        ts, options, visitor, abs.get(), sleep, 1);
  }
  return pool_reach<ShardedVisitedSet, ShardedVisitedSet>(
      ts, options, visitor, abs.get(), sleep, workers);
}

ReachResult visit_reachable(const System& sys, const ReachOptions& options,
                            const StateVisitor& visitor) {
  const SystemTransitions ts(sys);
  return visit_reachable(ts, options, visitor);
}

}  // namespace rc11::engine
