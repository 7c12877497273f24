#include "race/race.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"

namespace rc11::race {

namespace {

using engine::ShardedVisitedSet;
using lang::Step;

/// Dedup and sort key of a race: the location plus both access sites in
/// canonical order — exactly what the cross-checks compare, and nothing
/// run-dependent (no traces, no state dumps).
using Key = std::array<std::uint64_t, 7>;

Key key_of(const RaceRecord& r) {
  return {r.loc,
          r.prior.thread,
          r.prior.pc,
          static_cast<std::uint64_t>(r.prior.cat),
          r.current.thread,
          r.current.pc,
          static_cast<std::uint64_t>(r.current.cat)};
}

/// Canonicalises the unordered access pair.  Which side the detector
/// recorded as "prior" depends on the interleaving (and, under reductions,
/// on which orbit member gets visited), so the two sides are sorted by
/// (thread, pc, category) before dedup.
RaceRecord canonical_pair(RaceRecord r) {
  const auto rank = [](const RaceAccess& a) {
    return std::make_tuple(a.thread, a.pc, static_cast<unsigned>(a.cat));
  };
  if (rank(r.current) < rank(r.prior)) std::swap(r.prior, r.current);
  return r;
}

std::string describe(const System& sys, const RaceRecord& r) {
  std::ostringstream os;
  os << "data race on '" << sys.locations().name(r.loc) << "': t"
     << static_cast<unsigned>(r.prior.thread) << " " << access_name(r.prior.cat)
     << " at pc " << r.prior.pc << " vs t"
     << static_cast<unsigned>(r.current.thread) << " "
     << access_name(r.current.cat) << " at pc " << r.current.pc;
  return os.str();
}

/// Fills `out` for a directly observed record: description, the state right
/// after the racing step, and — when the run records traces — the recorded
/// path to the visited state plus one appended step, the racing step
/// itself, so the witness replays through *both* access sites.
void observe(ReportedRace& out, const System& traced,
             const engine::CheckerRun& run, const RaceRecord& rec,
             std::uint64_t id, lang::ThreadId step_thread,
             const std::string& step_label, std::uint64_t step_digest,
             std::string state_dump) {
  out.record = rec;
  out.location = traced.locations().name(rec.loc);
  out.what = describe(traced, rec);
  out.state_dump = std::move(state_dump);
  auto recorded =
      run.recorded_run(id, "race", "race", out.what, out.state_dump);
  if (recorded.witness) {
    recorded.trace.push_back(step_label);
    recorded.witness->steps.push_back({step_thread, step_label, step_digest});
  }
  out.trace = std::move(recorded.trace);
  out.witness = std::move(recorded.witness);
}

/// The race checker's two supervised halves (engine/supervise.hpp): workers
/// ship one event per race record harvested from a step's post-state —
/// numeric record fields plus the racing step's thread, label and post-state
/// digest/dump, everything the supervisor cannot recompute — and the
/// supervisor dedups into the canonical map and rebuilds witnesses from the
/// shared sink, in deterministic state order.
class RaceDelegate final : public engine::DistDelegate {
 public:
  RaceDelegate(const System& traced, const RaceOptions& options,
               const engine::CheckerRun& run)
      : traced_(traced), options_(options), run_(run) {}

  bool evaluate(const Config& cfg, std::span<const Step> steps,
                std::vector<witness::Json>& events) override {
    (void)cfg;
    bool keep = true;
    std::vector<std::uint64_t> enc;
    for (const Step& step : steps) {
      for (const RaceRecord& raw : step.after.mem.race_records()) {
        const RaceRecord rec = canonical_pair(raw);
        if (options_.stop_on_race) keep = false;
        witness::Json e = witness::Json::object();
        e.set("kind", witness::Json::string("race"));
        const auto num = [](std::uint64_t v) {
          return witness::Json::integer(static_cast<std::int64_t>(v));
        };
        e.set("loc", num(rec.loc));
        e.set("pt", num(rec.prior.thread));
        e.set("ppc", num(rec.prior.pc));
        e.set("pcat", num(static_cast<std::uint64_t>(rec.prior.cat)));
        e.set("ct", num(rec.current.thread));
        e.set("cpc", num(rec.current.pc));
        e.set("ccat", num(static_cast<std::uint64_t>(rec.current.cat)));
        e.set("dump", witness::Json::string(step.after.to_string(traced_)));
        e.set("st", num(step.thread));
        e.set("sl", witness::Json::string(step.label));
        enc.clear();
        step.after.encode_into(enc);
        e.set("sd", witness::Json::string(
                        witness::digest_to_hex(support::hash_words(enc))));
        events.push_back(std::move(e));
      }
    }
    return keep;
  }

  bool absorb(const witness::Json& event, std::uint64_t id,
              const ShardedVisitedSet& /*sink*/) override {
    const auto num = [&](const char* field) {
      return static_cast<std::uint64_t>(event.at(field).as_int());
    };
    RaceRecord rec;
    rec.loc = static_cast<lang::LocId>(num("loc"));
    rec.prior.thread = static_cast<lang::ThreadId>(num("pt"));
    rec.prior.pc = static_cast<std::uint32_t>(num("ppc"));
    rec.prior.cat = static_cast<RaceCat>(num("pcat"));
    rec.current.thread = static_cast<lang::ThreadId>(num("ct"));
    rec.current.pc = static_cast<std::uint32_t>(num("cpc"));
    rec.current.cat = static_cast<RaceCat>(num("ccat"));
    auto [it, inserted] = races.try_emplace(key_of(rec));
    if (inserted) {
      observe(it->second, traced_, run_, rec, id,
              static_cast<lang::ThreadId>(num("st")),
              event.at("sl").as_string(),
              witness::digest_from_hex(event.at("sd").as_string()),
              event.at("dump").as_string());
    }
    return !options_.stop_on_race;
  }

  // An ordered map doubles as the dedup set and the canonical output order.
  std::map<Key, ReportedRace> races;

 private:
  const System& traced_;
  const RaceOptions& options_;
  const engine::CheckerRun& run_;
};

}  // namespace

const char* access_name(RaceCat cat) noexcept {
  switch (cat) {
    case RaceCat::NaRead:
      return "non-atomic read";
    case RaceCat::AtomicRead:
      return "atomic read";
    case RaceCat::NaWrite:
      return "non-atomic write";
    case RaceCat::AtomicWrite:
      return "atomic write";
  }
  return "access";
}

RaceResult check(const System& sys, const RaceOptions& options) {
  // Race tracking lives inside MemState behind SemanticsOptions::
  // race_detection; run on a copy with the flag forced on so every other
  // checker keeps its clock-free encodings.
  System traced = sys;
  {
    auto sem = traced.options();
    sem.race_detection = true;
    traced.set_options(sem);
  }

  engine::CheckerRun run(traced, options);

  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(traced);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  std::mutex mu;
  // An ordered map doubles as the dedup set and the canonical output order.
  std::map<Key, ReportedRace> races;

  const auto observe_step = [&](ReportedRace& out, const RaceRecord& rec,
                                std::uint64_t id, const Step& step) {
    std::uint64_t digest = 0;
    if (run.trace() != nullptr) {
      std::vector<std::uint64_t> enc;
      step.after.encode_into(enc);
      digest = support::hash_words(enc);
    }
    observe(out, traced, run, rec, id, step.thread, step.label, digest,
            step.after.to_string(traced));
  };

  const engine::StateVisitor visitor = [&](const Config& cfg, std::uint64_t id,
                                           std::span<const Step> steps) {
    (void)cfg;
    bool keep_going = true;
    for (const Step& step : steps) {
      // Records live on the *post*-state of each enabled step, never on the
      // visited configuration: the visited-set encoding excludes them, so a
      // state reachable through both a racing and a race-free step would
      // otherwise keep whichever arrived first.
      for (const RaceRecord& raw : step.after.mem.race_records()) {
        const RaceRecord rec = canonical_pair(raw);
        if (options.stop_on_race) keep_going = false;
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = races.try_emplace(key_of(rec));
        if (inserted) {
          observe_step(it->second, rec, id, step);
        } else if (run.trace() != nullptr && !it->second.witness) {
          // First inserted as a symmetry-closed sibling; now directly
          // observed — upgrade it to a witnessed report.
          observe_step(it->second, rec, id, step);
        }
        if (!orbit) continue;
        // Orbit closure: a permuted execution of the racy trace is a real
        // execution reporting the thread-permuted record, so the full
        // (unreduced) race set is exactly the closure of the representative
        // records under the symmetry group.  pcs stay: interchangeable
        // threads run identical code.
        const std::vector<std::string>& rep_trace = it->second.trace;
        reducer->for_each_perm([&](const engine::ThreadPerm& perm) {
          RaceRecord sibling = rec;
          sibling.prior.thread = perm[rec.prior.thread];
          sibling.current.thread = perm[rec.current.thread];
          sibling = canonical_pair(sibling);
          auto [sit, fresh] = races.try_emplace(key_of(sibling));
          if (!fresh) return;
          ReportedRace& sib = sit->second;
          sib.record = sibling;
          sib.location = traced.locations().name(sibling.loc);
          sib.what = describe(traced, sibling);
          sib.state_dump =
              reducer->permuted(step.after, perm).to_string(traced);
          sib.trace = rep_trace;
          if (!sib.trace.empty()) {
            sib.trace.emplace_back(
                "(racing threads are a thread permutation of the threads "
                "this trace exercises)");
          }
          // No witness: the permuted execution was pruned by the quotient.
          // Its orbit representative above carries one.
        });
      }
    }
    return keep_going;
  };
  RaceDelegate delegate(traced, options, run);

  // No rf pins: race state is in the quotient key (see RaceOptions).
  const auto reach = run.run(visitor, delegate);

  RaceResult result;
  result.stats = reach.stats;
  result.stop = reach.stop;
  result.truncated = reach.stop != engine::StopReason::Complete;
  result.dist = reach.telemetry;
  // Exactly one of the two halves ran.
  auto& found = options.workers > 0 ? delegate.races : races;
  result.races.reserve(found.size());
  for (auto& [key, r] : found) result.races.push_back(std::move(r));
  return result;
}

}  // namespace rc11::race
