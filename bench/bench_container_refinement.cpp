// Experiments S1 and Q1 (extension — the paper's future-work direction):
// contextual refinement for the two ordered containers.  The lock-protected
// bounded vector stack must forward-simulate the abstract synchronising
// stack of Figures 1-3 (S1), and the lock-protected ring buffer the abstract
// FIFO queue (Q1); each variant with a relaxed unlock must fail, since it
// loses the put^R/take^A publication guarantee.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "containers/container_objects.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using memsem::LocKind;

refinement::SimulationResult simulate(const containers::ClientProgram& client,
                                      LocKind kind, unsigned capacity = 2,
                                      bool releasing_unlock = true) {
  containers::AbstractContainer abs{kind};
  const auto abs_sys = containers::instantiate(client, abs);
  const auto conc =
      containers::locked_container(kind, capacity, releasing_unlock);
  const auto conc_sys = containers::instantiate(client, *conc);
  return refinement::check_forward_simulation(abs_sys, conc_sys);
}

LocKind kind_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? LocKind::Stack : LocKind::Queue;
}

void report(benchmark::State& state, const refinement::SimulationResult& r) {
  state.counters["abs_states"] = static_cast<double>(r.abstract_states);
  state.counters["conc_states"] = static_cast<double>(r.concrete_states);
  state.counters["holds"] = r.holds ? 1 : 0;
}

// Arg 0 selects the container: 0 = stack, 1 = queue.
void BM_ContainerSimulation_Publication(benchmark::State& state) {
  refinement::SimulationResult result;
  for (auto _ : state) {
    result = simulate(containers::publication_client(), kind_arg(state));
    benchmark::DoNotOptimize(result.holds);
  }
  report(state, result);
}
BENCHMARK(BM_ContainerSimulation_Publication)->Arg(0)->Arg(1);

void BM_ContainerSimulation_ProducerConsumer(benchmark::State& state) {
  const auto puts = static_cast<unsigned>(state.range(1));
  refinement::SimulationResult result;
  for (auto _ : state) {
    result = simulate(containers::producer_consumer_client(puts),
                      kind_arg(state), puts);
    benchmark::DoNotOptimize(result.holds);
  }
  report(state, result);
  state.SetLabel(std::to_string(puts) + " puts");
}
BENCHMARK(BM_ContainerSimulation_ProducerConsumer)
    ->ArgsProduct({{0, 1}, {1, 2, 3}});

}  // namespace

int main(int argc, char** argv) {
  struct Experiment {
    const char* id;
    LocKind kind;
    const char* holds;     ///< the positive verdict's text
    const char* rejected;  ///< the relaxed-unlock verdict's prefix
  };
  const Experiment experiments[] = {
      {"S1", LocKind::Stack,
       "locked vector stack forward-simulates the abstract synchronising "
       "stack",
       "relaxed-unlock variant rejected: "},
      {"Q1", LocKind::Queue,
       "locked ring queue forward-simulates the abstract FIFO queue",
       "relaxed-unlock ring queue rejected: "},
  };
  for (const auto& e : experiments) {
    const auto client = containers::publication_client();
    const auto r = simulate(client, e.kind);
    bench::verdict(e.id, r.holds,
                   std::string(e.holds) + " (abs " +
                       std::to_string(r.abstract_states) + " states, conc " +
                       std::to_string(r.concrete_states) + " states)");
    const auto rb = simulate(client, e.kind, 2, /*releasing_unlock=*/false);
    bench::verdict(std::string(e.id) + "-neg", !rb.holds,
                   e.rejected + rb.diagnosis);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
