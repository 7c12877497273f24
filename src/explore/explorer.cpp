#include "explore/explorer.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "engine/symmetry.hpp"
#include "engine/wire.hpp"
#include "support/diagnostics.hpp"

namespace rc11::explore {

namespace {

/// A final configuration together with its canonical encoding.  The
/// encoding is computed exactly once — when the config passes final
/// deduplication — and reused as the sort key, fixing the old
/// encode-for-dedup-then-re-encode-for-sort double work.
using KeyedConfig = std::pair<std::vector<std::uint64_t>, Config>;

/// Canonical ordering for deterministic results across thread counts: sort
/// configs by their encodings (equal encodings == semantically identical
/// configurations, so the order is total on deduplicated sets), then strip
/// the keys.
std::vector<Config> sort_keyed_configs(std::vector<KeyedConfig>& keyed) {
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedConfig& a, const KeyedConfig& b) {
              return a.first < b.first;
            });
  std::vector<Config> sorted;
  sorted.reserve(keyed.size());
  for (auto& [enc, cfg] : keyed) sorted.push_back(std::move(cfg));
  keyed.clear();
  return sorted;
}

void sort_violations(std::vector<Violation>& violations) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.what != b.what) return a.what < b.what;
              return a.state_dump < b.state_dump;
            });
}

/// A violation at the state interned as `id`, with the run the sink
/// recorded to it when the run records traces.
Violation make_violation(const engine::CheckerRun& run, std::uint64_t id,
                         std::string what, std::string state_dump) {
  auto recorded = run.recorded_run(id, "invariant", "explore", what,
                                  state_dump);
  return {std::move(what), std::move(state_dump), std::move(recorded.trace),
          std::move(recorded.witness)};
}

/// The explorer's two halves of a supervised run (engine/supervise.hpp):
/// evaluate() reproduces the visitor's per-state logic in the worker process
/// as serialisable events; absorb() rebuilds violations (with traces and
/// witnesses from the shared sink) and final configurations (decoded from
/// the wire form their event carries, checked against the sink) in the
/// supervisor, in deterministic state order.
class ExploreDelegate final : public engine::DistDelegate {
 public:
  ExploreDelegate(const System& sys, const ExploreOptions& options,
                  const Invariant& invariant, const engine::CheckerRun& run)
      : sys_(sys), options_(options), invariant_(invariant), run_(run) {}

  bool evaluate(const Config& cfg, std::span<const Step> steps,
                std::vector<witness::Json>& events) override {
    bool keep = true;
    if (invariant_) {
      if (auto what = invariant_(sys_, cfg)) {
        witness::Json e = witness::Json::object();
        e.set("kind", witness::Json::string("violation"));
        e.set("what", witness::Json::string(std::move(*what)));
        e.set("dump", witness::Json::string(cfg.to_string(sys_)));
        events.push_back(std::move(e));
        if (options_.stop_on_violation) keep = false;
      }
    }
    if (steps.empty() && cfg.all_done(sys_)) {
      std::vector<std::uint64_t> wire;
      cfg.encode_wire(wire);
      witness::Json e = witness::Json::object();
      e.set("kind", witness::Json::string("final"));
      e.set("wire", witness::Json::string(engine::wire::words_hex(wire)));
      events.push_back(std::move(e));
    }
    return keep;
  }

  bool absorb(const witness::Json& event, std::uint64_t id,
              const engine::ShardedVisitedSet& sink) override {
    const std::string& kind = event.at("kind").as_string();
    if (kind == "violation") {
      violations.push_back(make_violation(run_, id,
                                          event.at("what").as_string(),
                                          event.at("dump").as_string()));
      return !options_.stop_on_violation;
    }
    if (kind == "final") {
      std::vector<std::uint64_t> words;
      engine::wire::words_from_hex(event.at("wire").as_string(), words);
      Config done = Config::decode_wire(sys_, words);
      std::vector<std::uint64_t> enc;
      done.encode_into(enc);
      words.clear();
      sink.decode_state(id, words);
      support::require(enc == words,
                       "final configuration does not match its state");
      if (final_dedup_.insert(enc)) {
        finals.emplace_back(std::move(enc), std::move(done));
      }
    }
    return true;
  }

  std::vector<KeyedConfig> finals;
  std::vector<Violation> violations;

 private:
  const System& sys_;
  const ExploreOptions& options_;
  const Invariant& invariant_;
  const engine::CheckerRun& run_;
  engine::ShardedVisitedSet final_dedup_;
};

}  // namespace

ExploreResult explore(const System& sys, const ExploreOptions& options,
                      const Invariant& invariant) {
  // Final-config collection, invariant evaluation and — when the run
  // records traces — witness construction from the trace sink's parent
  // links, for every thread count; the harness (engine/run.hpp) owns
  // everything around the driver.  The mutexes are uncontended in
  // sequential runs and cold in parallel ones (finals and violations are
  // rare events next to state expansion).
  engine::CheckerRun run(sys, options);

  // Under the symmetry quotient the driver hands the visitor one orbit
  // representative per equivalence class; exactness of finals and invariant
  // verdicts is *this* layer's duty: finals are orbit-closed and the
  // invariant is evaluated at every orbit member.  for_each_orbit and
  // permuted() are const and scratch-free, so one reducer is safely shared
  // by all visitor threads.
  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(sys);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  engine::ShardedVisitedSet final_dedup;
  std::mutex finals_mu;
  std::vector<KeyedConfig> finals;
  std::mutex violations_mu;
  std::vector<Violation> violations;

  const engine::StateVisitor visitor = [&](const Config& cfg, std::uint64_t id,
                                           std::span<const Step> steps) -> bool {
    bool keep_going = true;
    if (invariant) {
      const auto check_member = [&](const Config& member, bool is_rep) {
        auto what = invariant(sys, member);
        if (!what) return;
        // Under the quotient the recorded path leads to the orbit
        // *representative*; for a violation at a permuted member the trace
        // is still a real execution (witness digests replay to the
        // representative) and the permutation is flagged.
        Violation v =
            make_violation(run, id, std::move(*what), member.to_string(sys));
        if (!is_rep && !v.trace.empty()) {
          v.trace.emplace_back(
              "(violating state is a thread permutation of the state "
              "this trace reaches)");
        }
        std::lock_guard<std::mutex> lock(violations_mu);
        violations.push_back(std::move(v));
        if (options.stop_on_violation) keep_going = false;
      };
      if (orbit) {
        bool is_rep = true;
        reducer->for_each_orbit(
            cfg, [&](const Config& member, const engine::ThreadPerm&) {
              check_member(member, is_rep);
              is_rep = false;
            });
      } else {
        check_member(cfg, /*is_rep=*/true);
      }
    }
    if (steps.empty() && cfg.all_done(sys)) {
      const auto collect = [&](const Config& done) {
        // Encode once; the encoding doubles as the dedup key here and the
        // canonical sort key below.
        std::vector<std::uint64_t> enc;
        enc.reserve(64);
        done.encode_into(enc);
        if (final_dedup.insert(enc)) {
          std::lock_guard<std::mutex> lock(finals_mu);
          finals.emplace_back(std::move(enc), done);
        }
      };
      // all_done is permutation-invariant, so orbit-closing the finals here
      // restores the exact final set of an unreduced run.
      if (orbit) {
        reducer->for_each_orbit(
            cfg, [&](const Config& member, const engine::ThreadPerm&) {
              collect(member);
            });
      } else {
        collect(cfg);
      }
    }
    return keep_going;
  };
  ExploreDelegate delegate(sys, options, invariant, run);

  const auto reach = run.run(visitor, delegate, {.rf_pins = options.rf_pins});

  ExploreResult result;
  result.stats = reach.stats;
  result.stop = reach.stop;
  result.truncated = reach.stop != engine::StopReason::Complete;
  result.dist = reach.telemetry;
  // Exactly one of the two halves ran.
  const bool supervised = options.workers > 0;
  result.final_configs =
      sort_keyed_configs(supervised ? delegate.finals : finals);
  result.violations =
      std::move(supervised ? delegate.violations : violations);
  sort_violations(result.violations);
  return result;
}

std::vector<std::vector<lang::Value>> final_register_values(
    const System& sys, const ExploreResult& result,
    const std::vector<lang::Reg>& regs) {
  std::vector<std::vector<lang::Value>> outcomes;
  outcomes.reserve(result.final_configs.size());
  for (const auto& cfg : result.final_configs) {
    std::vector<lang::Value> tuple;
    tuple.reserve(regs.size());
    for (const auto& r : regs) {
      RC11_REQUIRE(r.thread < cfg.regs.size() && r.id < cfg.regs[r.thread].size(),
                   "register out of range in outcome extraction");
      tuple.push_back(cfg.regs[r.thread][r.id]);
    }
    outcomes.push_back(std::move(tuple));
  }
  // Sort-then-unique instead of a std::find per final config: the old
  // quadratic dedup dominated outcome extraction on large final sets.
  std::sort(outcomes.begin(), outcomes.end());
  outcomes.erase(std::unique(outcomes.begin(), outcomes.end()), outcomes.end());
  (void)sys;
  return outcomes;
}

bool outcome_reachable(const System& sys, const ExploreResult& result,
                       const std::vector<lang::Reg>& regs,
                       const std::vector<lang::Value>& values) {
  const auto outcomes = final_register_values(sys, result, regs);
  return std::binary_search(outcomes.begin(), outcomes.end(), values);
}

}  // namespace rc11::explore
