// Experiment SR: thread-symmetry reduction — visited states, transitions and
// wall-clock with the quotient off vs. on (both on top of POR), across the
// three targeted benchmark families (ticket-lock workers, symmetric queue
// clients, symmetric stack clients) plus controls.
//
// Verdict lines assert the tentpole's headline (>= 10x fewer visited states
// on the targeted families) and that the quotiented exploration reaches
// exactly the same final-configuration set — orbit closure at the explorer
// restores every concrete final the unreduced run reports.  With --json the
// same numbers become BENCH_sym.json, diffed by CI against
// bench/baseline_sym.json (state counts exact, throughput within tolerance),
// which also gates the symmetry-off path: the *_por cases must not move when
// the quotient evolves.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "containers/container_objects.hpp"

namespace {

using namespace rc11;

struct Workload {
  std::string name;
  lang::System sys;
  bool expect_10x;  ///< targeted family: the >= 10x headline applies
};

/// N identical threads, each put(1) then take — fully interchangeable, so
/// the quotient collapses the thread orbit (up to N! per state class).
containers::ClientProgram sym_container_client(unsigned threads) {
  return [threads](lang::System& sys, containers::ContainerObject& box) {
    for (unsigned t = 0; t < threads; ++t) {
      auto tb = sys.thread();
      auto r = tb.reg("r");
      box.emit_put(tb, lang::c(1), /*releasing=*/true);
      box.emit_take(tb, r, /*acquiring=*/true);
    }
  };
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    locks::TicketLock lock;
    w.push_back({"sym_ticket_worker_4x1w2",
                 locks::instantiate(locks::worker_client(4, 1, 2), lock),
                 true});
    // Smaller orbit (3! = 6): the factor lands between 5x and 6x, guarding
    // the scaling story — reduction grows with the symmetric thread count.
    w.push_back({"sym_ticket_worker_3x1w2",
                 locks::instantiate(locks::worker_client(3, 1, 2), lock),
                 false});
  }
  {
    containers::AbstractContainer q{memsem::LocKind::Queue};
    w.push_back({"sym_abstract_queue_4x",
                 containers::instantiate(sym_container_client(4), q), true});
  }
  {
    containers::LockedRingQueue q(4);
    w.push_back({"sym_ring_queue_3x",
                 containers::instantiate(sym_container_client(3), q), false});
  }
  {
    containers::AbstractContainer s{memsem::LocKind::Stack};
    w.push_back({"sym_abstract_stack_4x",
                 containers::instantiate(sym_container_client(4), s), true});
  }
  // Control: asymmetric program — the reducer finds no interchangeable
  // threads and must pass through untouched (factor 1x, zero hits), guarding
  // against the numbers being an artifact of anything but the quotient.
  w.push_back({"sym_mp_litmus", litmus::mp_release_acquire().sys, false});
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

void report_sym(rc11::bench::JsonReport& json) {
  for (const auto& [name, sys, expect_10x] : workloads()) {
    explore::ExploreOptions por_opts;
    por_opts.por = true;
    explore::ExploreOptions sym_opts = por_opts;
    sym_opts.symmetry = true;

    explore::ExploreResult baseline, reduced;
    const double por_s = rc11::bench::timed_explore(sys, por_opts, baseline);
    const double sym_s = rc11::bench::timed_explore(sys, sym_opts, reduced);

    const double factor = static_cast<double>(baseline.stats.states) /
                          static_cast<double>(reduced.stats.states);
    const bool exact = finals_equal(baseline, reduced);
    const bool ok = exact && (!expect_10x || factor >= 10.0);

    std::ostringstream detail;
    detail << name << ": " << baseline.stats.states << " -> "
           << reduced.stats.states << " states (" << factor << "x, "
           << (expect_10x ? "target >= 10x" : "control") << "), "
           << baseline.stats.transitions << " -> "
           << reduced.stats.transitions << " edges, "
           << reduced.stats.symmetry_hits << " orbit hits, "
           << reduced.stats.sleep_set_skips << " sleep skips, finals "
           << (exact ? "identical" : "DIFFER") << ", " << por_s * 1e3
           << " -> " << sym_s * 1e3 << " ms";
    rc11::bench::verdict("SR", ok, detail.str());

    json.add(name + "_por",
             {{"states", static_cast<double>(baseline.stats.states)},
              {"transitions", static_cast<double>(baseline.stats.transitions)},
              {"wall_ms", por_s * 1e3},
              {"states_per_s",
               static_cast<double>(baseline.stats.states) / por_s}});
    json.add(name + "_sym",
             {{"states", static_cast<double>(reduced.stats.states)},
              {"transitions", static_cast<double>(reduced.stats.transitions)},
              {"wall_ms", sym_s * 1e3},
              {"states_per_s",
               static_cast<double>(reduced.stats.states) / sym_s},
              {"reduction", factor},
              {"symmetry_hits",
               static_cast<double>(reduced.stats.symmetry_hits)},
              {"sleep_set_skips",
               static_cast<double>(reduced.stats.sleep_set_skips)}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_sym(json);
  if (!json.write("bench_sym")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
