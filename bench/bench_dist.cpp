// Experiment DW: supervised multi-process exploration (--workers) — the
// crash-tolerance headline in one diff.  Each workload is explored four
// ways: in-process sequential (the oracle), supervised at 2 and 4 workers,
// and supervised at 2 workers with a crash fault injected at a batch
// boundary (the supervisor SIGKILLs and re-forks the worker mid-run).  The
// verdict asserts the distributed contract from DESIGN.md:
//
//   * every supervised run — disturbed or not, at any worker count — is
//     byte-identical in all verdict-bearing stats (states, transitions,
//     finals, blocked, peak frontier, visited bytes) and final-config sets;
//   * the sequential oracle agrees on verdicts (states, transitions, final
//     configurations) — frontier-shape counters are driver-specific and
//     deliberately not compared;
//   * the injected crash actually fired (>= 1 restart, >= 1 retried batch)
//     and no state was orphaned.
//
// With --json the same numbers become BENCH_dist.json, diffed by CI against
// bench/baseline_dist.json (state counts exact, throughput within
// tolerance); states_per_s here prices the supervision tax — JSON records,
// frame encode/decode and wire-form decoding — against the in-process
// driver.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/budget.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"

namespace {

using namespace rc11;

struct Workload {
  std::string name;
  lang::System sys;
  bool por = false;
  bool rf_quotient = false;
  bool with_w4 = true;  ///< also run the 4-worker point (skipped when slow)
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  locks::TicketLock lock;
  // Small plain workload: supervision overhead is mostly fork + pipe setup.
  w.push_back({"dist_ticket_mgc_2x2",
               locks::instantiate(locks::mgc_client(2, 2), lock),
               /*por=*/false, /*rf_quotient=*/false, /*with_w4=*/true});
  // Mid-size reduced workloads: per-state supervision costs dominate, so
  // these price the supervision tax where it actually bites.  The rf point
  // skips the 4-worker run to keep the bench short.
  w.push_back({"dist_ticket_worker_2x4w8_por",
               locks::instantiate(locks::worker_client(2, 4, 8), lock),
               /*por=*/true, /*rf_quotient=*/false, /*with_w4=*/true});
  w.push_back({"dist_ticket_worker_2x4w8_rf",
               locks::instantiate(locks::worker_client(2, 4, 8), lock),
               /*por=*/false, /*rf_quotient=*/true, /*with_w4=*/false});
  return w;
}

explore::ExploreOptions base_options(const Workload& w) {
  explore::ExploreOptions opts;
  opts.por = w.por;
  opts.rf_quotient = w.rf_quotient;
  return opts;
}

std::vector<lang::Reg> all_regs(const lang::System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

/// Configs carry no operator==; the canonical comparable projection of the
/// final set is the sorted outcome list over every register.
std::vector<std::vector<lang::Value>> outcomes_of(
    const lang::System& sys, const explore::ExploreResult& result) {
  return explore::final_register_values(sys, result, all_regs(sys));
}

double timed_explore(const lang::System& sys,
                     const explore::ExploreOptions& opts,
                     explore::ExploreResult& result) {
  // One timed repetition: supervised runs take seconds and fork fresh
  // worker processes every time, so there is no cache to warm and the best
  // of N would mostly re-measure fork jitter CI's 30% tolerance absorbs.
  const auto t0 = std::chrono::steady_clock::now();
  result = explore::explore(sys, opts);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The byte-identity contract across supervised runs: every stats field.
bool same_supervised(const lang::System& sys, const explore::ExploreResult& a,
                     const explore::ExploreResult& b) {
  return a.stats.states == b.stats.states &&
         a.stats.transitions == b.stats.transitions &&
         a.stats.finals == b.stats.finals &&
         a.stats.blocked == b.stats.blocked &&
         a.stats.peak_frontier == b.stats.peak_frontier &&
         a.stats.visited_bytes == b.stats.visited_bytes &&
         outcomes_of(sys, a) == outcomes_of(sys, b) &&
         a.stop == engine::StopReason::Complete &&
         b.stop == engine::StopReason::Complete;
}

/// Sequential-oracle agreement: verdict-bearing fields only (frontier shape
/// and sink footprint are driver-specific — see DESIGN.md).
bool same_verdicts(const lang::System& sys, const explore::ExploreResult& a,
                   const explore::ExploreResult& b) {
  return a.stats.states == b.stats.states &&
         a.stats.transitions == b.stats.transitions &&
         a.stats.finals == b.stats.finals &&
         a.stats.blocked == b.stats.blocked &&
         outcomes_of(sys, a) == outcomes_of(sys, b) && a.stop == b.stop;
}

void add_case(rc11::bench::JsonReport& json, const std::string& name,
              const explore::ExploreResult& result, double wall_s) {
  json.add(name,
           {{"states", static_cast<double>(result.stats.states)},
            {"wall_ms", wall_s * 1e3},
            {"states_per_s",
             static_cast<double>(result.stats.states) / wall_s}});
}

void report_dist(rc11::bench::JsonReport& json) {
  for (const auto& w : workloads()) {
    explore::ExploreResult seq, w2, w4, crash;

    auto seq_opts = base_options(w);
    const double seq_s = timed_explore(w.sys, seq_opts, seq);

    auto w2_opts = base_options(w);
    w2_opts.workers = 2;
    const double w2_s = timed_explore(w.sys, w2_opts, w2);

    double w4_s = 0;
    if (w.with_w4) {
      auto w4_opts = base_options(w);
      w4_opts.workers = 4;
      w4_s = timed_explore(w.sys, w4_opts, w4);
    }

    // Kill worker 0's second dispatched batch; the supervisor re-forks the
    // slot and replays only the unacknowledged work.
    auto crash_opts = base_options(w);
    crash_opts.workers = 2;
    crash_opts.fault = engine::FaultPlan::parse("crash:2");
    const double crash_s = timed_explore(w.sys, crash_opts, crash);

    const bool identical = same_supervised(w.sys, w2, crash) &&
                           (!w.with_w4 || same_supervised(w.sys, w2, w4));
    const bool oracle_agrees = same_verdicts(w.sys, seq, w2);
    const bool recovered = crash.dist.worker_restarts >= 1 &&
                           crash.dist.batches_retried >= 1 &&
                           crash.dist.states_orphaned == 0;
    const bool ok = identical && oracle_agrees && recovered;

    std::ostringstream detail;
    detail << w.name << ": " << w2.stats.states << " states, seq "
           << seq_s * 1e3 << " ms vs 2-worker " << w2_s * 1e3
           << " ms, crash-recovered " << crash_s * 1e3 << " ms ("
           << crash.dist.worker_restarts << " restart(s), "
           << crash.dist.batches_retried << " batch(es) replayed), "
           << "supervised runs " << (identical ? "identical" : "DIFFER")
           << ", oracle " << (oracle_agrees ? "agrees" : "DISAGREES")
           << ", recovery " << (recovered ? "clean" : "DIRTY");
    rc11::bench::verdict("DW", ok, detail.str());

    add_case(json, w.name + "_seq", seq, seq_s);
    add_case(json, w.name + "_w2", w2, w2_s);
    if (w.with_w4) add_case(json, w.name + "_w4", w4, w4_s);
    add_case(json, w.name + "_w2_crash", crash, crash_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_dist(json);
  if (!json.write("bench_dist")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
