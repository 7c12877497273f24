// Experiment RS: sampling throughput and coverage — episodes/s and the
// distinct-state coverage a fixed seeded episode budget reaches, across the
// two targeted benchmark families (ticket-lock worker pools and message
// passing), with the exhaustive enumeration as the oracle.
//
// Verdict lines assert soundness (every sampled final configuration is an
// exhaustively-reachable one, coverage never exceeds the oracle) and that
// the budget buys real coverage.  With --json the same numbers become
// BENCH_sample.json, diffed by CI against bench/baseline_sample.json.
// Because a sampled run is a pure function of (program, episodes, seed),
// the exact `states` match the regression checker enforces doubles as a
// cross-platform seed-determinism gate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "litmus/litmus.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"

namespace {

using namespace rc11;

constexpr std::uint64_t kEpisodes = 256;
constexpr std::uint64_t kSeed = 42;

struct Workload {
  std::string name;
  lang::System sys;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    locks::TicketLock lock;
    w.push_back({"sample_ticket_worker_2x2w4",
                 locks::instantiate(locks::worker_client(2, 2, 4), lock)});
    w.push_back({"sample_ticket_worker_3x1w3",
                 locks::instantiate(locks::worker_client(3, 1, 3), lock)});
  }
  w.push_back({"sample_mp_compute_w4", litmus::mp_compute(4)});
  w.push_back({"sample_mp_spin_w3", litmus::mp_spin_compute(3)});
  return w;
}

double timed_explore(const lang::System& sys,
                     const explore::ExploreOptions& opts,
                     explore::ExploreResult& result) {
  result = explore::explore(sys, opts);  // warm-up
  double best_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    result = explore::explore(sys, opts);
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  return best_s;
}

bool finals_subset(const explore::ExploreResult& sampled,
                   const explore::ExploreResult& oracle) {
  std::vector<std::vector<std::uint64_t>> pool;
  pool.reserve(oracle.final_configs.size());
  for (const auto& cfg : oracle.final_configs) pool.push_back(cfg.encode());
  std::sort(pool.begin(), pool.end());
  for (const auto& cfg : sampled.final_configs) {
    if (!std::binary_search(pool.begin(), pool.end(), cfg.encode())) {
      return false;
    }
  }
  return true;
}

void report_sample(rc11::bench::JsonReport& json) {
  for (const auto& [name, sys] : workloads()) {
    explore::ExploreOptions oracle_opts;
    explore::ExploreOptions sample_opts;
    sample_opts.mode = engine::Strategy::Sample;
    sample_opts.sample.episodes = kEpisodes;
    sample_opts.sample.seed = kSeed;

    explore::ExploreResult oracle, sampled;
    const double oracle_s = timed_explore(sys, oracle_opts, oracle);
    const double sample_s = timed_explore(sys, sample_opts, sampled);

    const double coverage = static_cast<double>(sampled.stats.states) /
                            static_cast<double>(oracle.stats.states);
    const bool sound = finals_subset(sampled, oracle) &&
                       sampled.stats.states <= oracle.stats.states;
    const bool ok = sound && sampled.stats.states > 0;

    std::ostringstream detail;
    detail << name << ": " << kEpisodes << " episodes cover "
           << sampled.stats.states << "/" << oracle.stats.states
           << " states (" << coverage * 100 << "%), finals "
           << (sound ? "subset of oracle" : "NOT IN ORACLE") << ", "
           << static_cast<double>(kEpisodes) / sample_s << " episodes/s, "
           << oracle_s * 1e3 << " ms exhaustive vs " << sample_s * 1e3
           << " ms sampled";
    rc11::bench::verdict("RS", ok, detail.str());

    json.add(name,
             {{"states", static_cast<double>(sampled.stats.states)},
              {"transitions", static_cast<double>(sampled.stats.transitions)},
              {"episodes", static_cast<double>(kEpisodes)},
              {"wall_ms", sample_s * 1e3},
              {"states_per_s",
               static_cast<double>(sampled.stats.states) / sample_s},
              {"episodes_per_s",
               static_cast<double>(kEpisodes) / sample_s},
              {"oracle_states", static_cast<double>(oracle.stats.states)},
              {"coverage", coverage}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_sample(json);
  if (!json.write("bench_sample")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
