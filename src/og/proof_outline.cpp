#include "og/proof_outline.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <span>

#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"

namespace rc11::og {

using lang::Step;

ProofOutline::ProofOutline(const System& sys) {
  annotations_.resize(sys.num_threads());
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    annotations_[t].assign(sys.code(t).size() + 1, Assertion::always());
  }
}

void ProofOutline::annotate(ThreadId t, std::uint32_t pc, Assertion a) {
  support::require(t < annotations_.size(), "annotate: thread out of range");
  support::require(pc < annotations_[t].size(),
                   "annotate: pc out of range for thread ", t);
  annotations_[t][pc] = std::move(a);
}

void ProofOutline::postcondition(ThreadId t, Assertion a) {
  annotate(t, terminal_pc(t), std::move(a));
}

const Assertion& ProofOutline::at(ThreadId t, std::uint32_t pc) const {
  const auto& anns = annotations_.at(t);
  // Control never moves past the terminal pc, but clamp defensively.
  return anns[pc < anns.size() ? pc : anns.size() - 1];
}

std::uint32_t ProofOutline::terminal_pc(ThreadId t) const {
  return static_cast<std::uint32_t>(annotations_.at(t).size() - 1);
}

namespace {

/// Evaluates every outline obligation at one reachable configuration —
/// validity (global invariant + the annotation at every thread's current pc)
/// and, when enabled, interference freedom over the enabled steps (the
/// classic {A ∧ pre(S)} S {A} side condition restricted to reachable
/// states; the step's precondition holds by the validity check).  Invokes
/// `fail(obligation)` per failed obligation, stopping after the first when
/// stop_at_first_failure.  Returns the number of obligations evaluated.
/// Shared by the sequential and parallel checkers so the obligation set can
/// never diverge between them.
template <typename FailFn>
std::uint64_t evaluate_obligations(const System& sys,
                                   const ProofOutline& outline,
                                   const OutlineCheckOptions& options,
                                   const Config& cfg,
                                   std::span<const Step> steps,
                                   const FailFn& fail) {
  std::uint64_t checked = 0;
  bool failed = false;

  checked += 1;
  if (!outline.global_invariant().eval(sys, cfg)) {
    fail("global invariant " + outline.global_invariant().name());
    failed = true;
  }
  if (!(failed && options.stop_at_first_failure)) {
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      checked += 1;
      const Assertion& ann = outline.at(t, cfg.pc[t]);
      if (!ann.eval(sys, cfg)) {
        fail(support::concat("annotation at t", t, " pc=", cfg.pc[t], ": ",
                             ann.name()));
        failed = true;
        if (options.stop_at_first_failure) break;
      }
    }
  }
  if (options.check_interference && !(failed && options.stop_at_first_failure)) {
    for (const auto& step : steps) {
      for (ThreadId t = 0; t < sys.num_threads(); ++t) {
        if (t == step.thread) continue;
        for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
          const Assertion& ann = outline.at(t, pc);
          checked += 1;
          if (ann.eval(sys, cfg) && !ann.eval(sys, step.after)) {
            fail(support::concat("interference: step [", step.label,
                                 "] breaks t", t, " pc=", pc, ": ",
                                 ann.name()));
            failed = true;
            if (options.stop_at_first_failure) break;
          }
        }
        if (failed && options.stop_at_first_failure) break;
      }
      if (failed && options.stop_at_first_failure) break;
    }
  }
  return checked;
}

/// Pins every annotation's view footprint into the rf-quotient key so each
/// obligation is a function of the key and verdicts are class-invariant;
/// rejects assertions with unknown footprints.  Shared by the in-process and
/// supervised checkers.
void collect_rf_pins(const System& sys, const ProofOutline& outline,
                     engine::RfPins& pins) {
  const auto collect = [&](const Assertion& a) {
    const auto& fp = a.footprint();
    support::require(
        !fp.everything, "--rf-quotient cannot check assertion '", a.name(),
        "': its view footprint is unknown (ad-hoc predicate); drop "
        "--rf-quotient or express it with the footprinted assertion "
        "factories");
    for (const auto& e : fp.entries) pins.entries.push_back(e);
  };
  collect(outline.global_invariant());
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
      collect(outline.at(t, pc));
    }
  }
}

/// One failed obligation at the state interned as `id`, with the run the
/// sink recorded to it when the run records traces.
ObligationFailure make_failure(const engine::CheckerRun& run, std::uint64_t id,
                               std::string obligation, std::string state_dump) {
  auto recorded = run.recorded_run(id, "outline", "og::check_outline",
                                  obligation, state_dump);
  return {std::move(obligation), std::move(state_dump),
          std::move(recorded.trace), std::move(recorded.witness)};
}

/// The outline checker's two supervised halves: evaluate() runs the full
/// obligation set in the worker and ships failures (plus the obligation
/// count) as events; absorb() rebuilds ObligationFailures with traces and
/// witnesses from the shared sink, in deterministic state order.
class OutlineDelegate final : public engine::DistDelegate {
 public:
  OutlineDelegate(const System& sys, const ProofOutline& outline,
                  const OutlineCheckOptions& options,
                  const engine::CheckerRun& run)
      : sys_(sys), outline_(outline), options_(options), run_(run) {}

  bool evaluate(const Config& cfg, std::span<const Step> steps,
                std::vector<witness::Json>& events) override {
    std::vector<std::string> local_failures;
    const std::uint64_t checked = evaluate_obligations(
        sys_, outline_, options_, cfg, steps, [&](std::string obligation) {
          local_failures.push_back(std::move(obligation));
        });
    witness::Json obls = witness::Json::object();
    obls.set("kind", witness::Json::string("obls"));
    obls.set("n", witness::Json::integer(static_cast<std::int64_t>(checked)));
    events.push_back(std::move(obls));
    if (local_failures.empty()) return true;
    const std::string dump = cfg.to_string(sys_);
    for (std::string& obligation : local_failures) {
      witness::Json e = witness::Json::object();
      e.set("kind", witness::Json::string("fail"));
      e.set("obligation", witness::Json::string(std::move(obligation)));
      e.set("dump", witness::Json::string(dump));
      events.push_back(std::move(e));
    }
    return !options_.stop_at_first_failure;
  }

  bool absorb(const witness::Json& event, std::uint64_t id,
              const explore::ShardedVisitedSet& /*sink*/) override {
    const std::string& kind = event.at("kind").as_string();
    if (kind == "obls") {
      obligations += static_cast<std::uint64_t>(event.at("n").as_int());
      return true;
    }
    if (kind != "fail") return true;
    valid = false;
    failures.push_back(make_failure(run_, id,
                                    event.at("obligation").as_string(),
                                    event.at("dump").as_string()));
    return !options_.stop_at_first_failure;
  }

  std::vector<ObligationFailure> failures;
  std::uint64_t obligations = 0;
  bool valid = true;

 private:
  const System& sys_;
  const ProofOutline& outline_;
  const OutlineCheckOptions& options_;
  const engine::CheckerRun& run_;
};

}  // namespace

OutlineCheckResult check_outline(const System& sys, const ProofOutline& outline,
                                 OutlineCheckOptions options) {
  // One implementation for every thread count, on the shared run harness
  // (engine/run.hpp).  When the run records traces, failures carry traces
  // and replayable witnesses even from a worker pool; the verdict and the
  // set of failed obligations are thread-count-independent (failures arrive
  // unordered when parallel).
  engine::CheckerRun run(sys, options);
  engine::RfPins pins;
  if (options.rf_quotient) collect_rf_pins(sys, outline, pins);

  OutlineCheckResult result;
  std::atomic<std::uint64_t> obligations{0};
  std::atomic<bool> valid{true};
  std::mutex failures_mu;

  // Under the symmetry quotient the driver visits one representative per
  // orbit; exactness of the Owicki–Gries obligations is restored here by
  // evaluating them at every orbit member, against the member's enabled
  // steps (the representative's steps pushed through the permutation — the
  // group action commutes with the successor relation).
  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(sys);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  const engine::StateVisitor visitor = [&](const Config& cfg, std::uint64_t id,
                                           std::span<const lang::Step> steps) {
    std::uint64_t local_obligations = 0;
    bool stop = false;
    const auto check_member = [&](const Config& member,
                                  std::span<const lang::Step> msteps,
                                  bool is_rep) {
      std::vector<std::string> local_failures;
      local_obligations += evaluate_obligations(
          sys, outline, options, member, msteps, [&](std::string obligation) {
            local_failures.push_back(std::move(obligation));
          });
      if (local_failures.empty()) return;
      valid.store(false, std::memory_order_relaxed);
      // One recorded run serves every obligation failed at this member.
      ObligationFailure shared = make_failure(run, id, {}, member.to_string(sys));
      if (!is_rep && !shared.trace.empty()) {
        shared.trace.emplace_back(
            "(failing state is a thread permutation of the state this trace "
            "reaches)");
      }
      std::lock_guard<std::mutex> lock(failures_mu);
      for (auto& obligation : local_failures) {
        ObligationFailure failure = shared;
        failure.obligation = std::move(obligation);
        if (failure.witness) failure.witness->what = failure.obligation;
        result.failures.push_back(std::move(failure));
      }
      if (options.stop_at_first_failure) stop = true;
    };
    if (orbit) {
      std::vector<lang::Step> psteps;
      bool is_rep = true;
      reducer->for_each_orbit(
          cfg, [&](const Config& member, const engine::ThreadPerm& perm) {
            if (stop) return;
            if (is_rep) {
              is_rep = false;
              check_member(member, steps, /*is_rep=*/true);
              return;
            }
            psteps.clear();
            psteps.reserve(steps.size());
            for (const auto& step : steps) {
              psteps.push_back(lang::Step{perm[step.thread], step.label,
                                          reducer->permuted(step.after, perm),
                                          step.meta});
            }
            check_member(member, psteps, /*is_rep=*/false);
          });
    } else {
      check_member(cfg, steps, /*is_rep=*/true);
    }
    obligations.fetch_add(local_obligations, std::memory_order_relaxed);
    return !stop;
  };
  OutlineDelegate delegate(sys, outline, options, run);

  // Interference messages cite the step label.
  const auto reach =
      run.run(visitor, delegate, {.rf_pins = pins, .want_labels = true});

  result.stats = reach.stats;
  result.stop = reach.stop;
  result.dist = reach.telemetry;
  if (options.workers > 0) {
    result.valid = delegate.valid;
    result.failures = std::move(delegate.failures);
    result.obligations_checked = delegate.obligations;
  } else {
    result.valid = valid.load();
    result.obligations_checked = obligations.load();
  }
  return result;
}

TripleCheckResult check_triple(const System& sys, const Assertion& pre,
                               const StatementFilter& filter,
                               const TriplePost& post,
                               std::uint64_t max_states) {
  // The triple quantifies over every reachable instance of the filtered
  // statement, so the full (unreduced) driver enumerates states and hands
  // each one its enabled steps — no private successor loop.
  TripleCheckResult result;
  explore::ReachOptions ropts;
  ropts.budget.max_states = max_states;
  ropts.want_labels = true;  // failure messages cite the step label
  (void)explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t /*id*/,
          std::span<const Step> steps) -> bool {
        if (!pre.eval(sys, cfg)) return true;
        for (const auto& step : steps) {
          const Instr& in = sys.code(step.thread)[cfg.pc[step.thread]];
          if (!filter(step.thread, in)) continue;
          result.instances_checked += 1;
          if (!post(sys, cfg, step.after)) {
            result.valid = false;
            ObligationFailure failure;
            failure.obligation =
                support::concat("triple violated by step [", step.label, "]");
            failure.state_dump = cfg.to_string(sys) + "-- after --\n" +
                                 step.after.to_string(sys);
            result.failures.push_back(std::move(failure));
          }
        }
        return true;
      });
  return result;
}

}  // namespace rc11::og
