// Experiment RF: execution-graph quotient (--rf-quotient) — visited states,
// transitions and wall-clock keyed by canonical reads-from/modification-order
// data instead of the full concrete encoding, measured against the *better*
// of the two older reductions (--por, --symmetry) on each family.
//
// The targeted families are store-heavy and deliberately asymmetric, so
// neither older reduction bites: every location is shared (no private ample
// steps) and no two threads run identical code (the symmetry quotient is a
// sound no-op).  What does explode concretely is dead view metadata — each
// observation of the pump's generation variable survives only in a tview
// entry the observer can neither use nor export, and in the mview snapshots
// of its later relaxed stores.  The quotient drops both.
//
//   * rf_store_fan: three writer fans observe g once, scrub, then publish
//     3/2/1 relaxed stores into their own locations; a pump generates g and
//     reads the fan locations back.
//   * rf_view_churn: two writers interleave observe-g / scrub / publish
//     rounds, so every publish snapshots a fresh dead view of g — the
//     concrete variant count is exponential in the round count.
//   * rf_mp_release (control): release/acquire message passing — every
//     store is releasing, so its mview is live, the quotient has nothing to
//     drop (factor ~1x) and the numbers cannot be an artifact of anything
//     but dead metadata.
//
// Verdict lines assert the tentpole's headline (>= 5x fewer visited states
// than best-of(--por, --symmetry) on the targeted families) and exactness of
// the final register-outcome set (the quotient keeps one concrete
// representative per class, so raw final configurations are *expected* to
// differ; the outcome set is the semantic object).  With --json the numbers
// become BENCH_rf.json, diffed by CI against bench/baseline_rf.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace rc11;

struct Workload {
  std::string name;
  lang::System sys;
  bool expect_5x;  ///< targeted family: the >= 5x headline applies
};

/// Three asymmetric writer fans (3/2/1 stores) + a generation pump; the
/// programmatic twin of tools/programs/store_fan.rc11.
lang::System store_fan(unsigned pump_stores) {
  lang::System sys;
  const auto g = sys.client_var("g", 0);
  const auto x = sys.client_var("x", 0);
  const auto y = sys.client_var("y", 0);
  const auto z = sys.client_var("z", 0);
  lang::Value v = 1;
  for (const auto [loc, fan] : {std::pair{x, 3u}, {y, 2u}, {z, 1u}}) {
    auto tb = sys.thread();
    const auto t = tb.reg("t");
    tb.load(t, g);
    tb.assign(t, lang::c(0));  // scrub: the observation is dead from here on
    for (unsigned i = 0; i < fan; ++i) tb.store(loc, lang::c(v++));
  }
  auto pump = sys.thread();
  const auto r = pump.reg("r");
  for (unsigned i = 1; i <= pump_stores; ++i) {
    pump.store(g, lang::c(static_cast<lang::Value>(i)));
  }
  pump.load(r, x);
  pump.load(r, y);
  pump.load(r, z);
  return sys;
}

/// Two asymmetric writers interleaving observe-g / scrub / publish rounds
/// (3 vs 2 rounds) + a generation pump reading the published locations.
lang::System view_churn(unsigned pump_stores) {
  lang::System sys;
  const auto g = sys.client_var("g", 0);
  const auto x = sys.client_var("x", 0);
  const auto y = sys.client_var("y", 0);
  for (const auto [loc, rounds] : {std::pair{x, 3u}, {y, 2u}}) {
    auto tb = sys.thread();
    const auto t = tb.reg("t");
    for (unsigned i = 1; i <= rounds; ++i) {
      tb.load(t, g);
      tb.assign(t, lang::c(0));
      tb.store(loc, lang::c(static_cast<lang::Value>(i)));
    }
  }
  auto pump = sys.thread();
  const auto r = pump.reg("r");
  for (unsigned i = 1; i <= pump_stores; ++i) {
    pump.store(g, lang::c(static_cast<lang::Value>(i)));
  }
  pump.load(r, x);
  pump.load(r, y);
  return sys;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"rf_store_fan", store_fan(4), true});
  w.push_back({"rf_view_churn", view_churn(4), true});
  w.push_back({"rf_mp_release", litmus::mp_release_acquire().sys, false});
  return w;
}

/// All registers of every thread, in declaration order — the outcome tuple.
std::vector<lang::Reg> all_regs(const lang::System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

void report_rf(rc11::bench::JsonReport& json) {
  for (const auto& [name, sys, expect_5x] : workloads()) {
    explore::ExploreOptions por_opts;
    por_opts.por = true;
    explore::ExploreOptions sym_opts;
    sym_opts.symmetry = true;
    explore::ExploreOptions rf_opts;
    rf_opts.rf_quotient = true;

    explore::ExploreResult por_res, sym_res, rf_res;
    const double por_s = rc11::bench::timed_explore(sys, por_opts, por_res);
    const double sym_s = rc11::bench::timed_explore(sys, sym_opts, sym_res);
    const double rf_s = rc11::bench::timed_explore(sys, rf_opts, rf_res);

    const auto best = std::min(por_res.stats.states, sym_res.stats.states);
    const double factor = static_cast<double>(best) /
                          static_cast<double>(rf_res.stats.states);
    // Exactness is judged on the final register-outcome set: the quotient
    // keeps one concrete representative per merged class, so comparing raw
    // final configurations would be wrong by design.
    const auto regs = all_regs(sys);
    const bool exact =
        explore::final_register_values(sys, por_res, regs) ==
        explore::final_register_values(sys, rf_res, regs);
    const bool ok = exact && (!expect_5x || factor >= 5.0);

    std::ostringstream detail;
    detail << name << ": best-of(por " << por_res.stats.states << ", sym "
           << sym_res.stats.states << ") = " << best << " -> "
           << rf_res.stats.states << " states (" << factor << "x, "
           << (expect_5x ? "target >= 5x" : "control") << "), "
           << rf_res.stats.sleep_set_skips << " sleep skips, outcomes "
           << (exact ? "identical" : "DIFFER") << ", best-of "
           << std::min(por_s, sym_s) * 1e3 << " -> " << rf_s * 1e3 << " ms";
    rc11::bench::verdict("RF", ok, detail.str());

    json.add(name + "_por",
             {{"states", static_cast<double>(por_res.stats.states)},
              {"transitions", static_cast<double>(por_res.stats.transitions)},
              {"wall_ms", por_s * 1e3},
              {"states_per_s",
               static_cast<double>(por_res.stats.states) / por_s}});
    json.add(name + "_sym",
             {{"states", static_cast<double>(sym_res.stats.states)},
              {"transitions", static_cast<double>(sym_res.stats.transitions)},
              {"wall_ms", sym_s * 1e3},
              {"states_per_s",
               static_cast<double>(sym_res.stats.states) / sym_s}});
    json.add(name + "_rf",
             {{"states", static_cast<double>(rf_res.stats.states)},
              {"transitions", static_cast<double>(rf_res.stats.transitions)},
              {"wall_ms", rf_s * 1e3},
              {"states_per_s",
               static_cast<double>(rf_res.stats.states) / rf_s},
              {"reduction", factor},
              {"sleep_set_skips",
               static_cast<double>(rf_res.stats.sleep_set_skips)}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_rf(json);
  if (!json.write("bench_rf")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
