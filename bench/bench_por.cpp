// Experiment F7: partial-order reduction — visited states, transitions and
// wall-clock with POR off vs. on, across the two targeted benchmark
// families (ticket-lock clients and message passing) plus control workloads.
//
// Verdict lines assert the tentpole's headline (>= 2x fewer visited states
// on the targeted families) and that the reduced exploration reaches exactly
// the same final-configuration set.  With --json the same numbers become
// BENCH_por.json, diffed by CI against bench/baseline_por.json (state counts
// exact, throughput within tolerance), which also gates the POR-off path:
// the *_full cases must not move when the reduction evolves.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"

namespace {

using namespace rc11;

struct Workload {
  std::string name;
  lang::System sys;
  bool expect_2x;  ///< targeted family: the >= 2x headline applies
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    locks::TicketLock lock;
    w.push_back({"por_ticket_worker_2x2w4",
                 locks::instantiate(locks::worker_client(2, 2, 4), lock),
                 true});
    w.push_back({"por_ticket_worker_3x1w3",
                 locks::instantiate(locks::worker_client(3, 1, 3), lock),
                 true});
    // Control: the plain most-general client has almost no local steps, so
    // the reduction is modest — the case guards against the numbers being
    // an artifact of the workload generator rather than the reduction.
    w.push_back({"por_ticket_mgc_2x2",
                 locks::instantiate(locks::mgc_client(2, 2), lock), false});
  }
  w.push_back({"por_mp_compute_w4", litmus::mp_compute(4), true});
  w.push_back({"por_mp_spin_w3", litmus::mp_spin_compute(3), true});
  w.push_back({"por_mp_litmus", litmus::mp_release_acquire().sys, false});
  return w;
}

bool finals_equal(const explore::ExploreResult& a,
                  const explore::ExploreResult& b) {
  if (a.final_configs.size() != b.final_configs.size()) return false;
  for (std::size_t i = 0; i < a.final_configs.size(); ++i) {
    if (a.final_configs[i].encode() != b.final_configs[i].encode()) {
      return false;
    }
  }
  return true;
}

void report_por(rc11::bench::JsonReport& json) {
  for (const auto& [name, sys, expect_2x] : workloads()) {
    explore::ExploreOptions full_opts;
    explore::ExploreOptions por_opts;
    por_opts.por = true;

    explore::ExploreResult full, reduced;
    const double full_s = rc11::bench::timed_explore(sys, full_opts, full);
    const double por_s = rc11::bench::timed_explore(sys, por_opts, reduced);

    const double factor = static_cast<double>(full.stats.states) /
                          static_cast<double>(reduced.stats.states);
    const bool exact = finals_equal(full, reduced);
    const bool ok = exact && (!expect_2x || factor >= 2.0);

    std::ostringstream detail;
    detail << name << ": " << full.stats.states << " -> "
           << reduced.stats.states << " states (" << factor << "x, "
           << (expect_2x ? "target >= 2x" : "control") << "), "
           << full.stats.transitions << " -> " << reduced.stats.transitions
           << " edges, " << reduced.stats.por_chained
           << " chained local steps, finals "
           << (exact ? "identical" : "DIFFER") << ", " << full_s * 1e3
           << " -> " << por_s * 1e3 << " ms";
    rc11::bench::verdict("F7", ok, detail.str());

    json.add(name + "_full",
             {{"states", static_cast<double>(full.stats.states)},
              {"transitions", static_cast<double>(full.stats.transitions)},
              {"wall_ms", full_s * 1e3},
              {"states_per_s",
               static_cast<double>(full.stats.states) / full_s}});
    json.add(name + "_por",
             {{"states", static_cast<double>(reduced.stats.states)},
              {"transitions", static_cast<double>(reduced.stats.transitions)},
              {"wall_ms", por_s * 1e3},
              {"states_per_s",
               static_cast<double>(reduced.stats.states) / por_s},
              {"reduction", factor},
              {"por_chained",
               static_cast<double>(reduced.stats.por_chained)}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_por(json);
  if (!json.write("bench_por")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
