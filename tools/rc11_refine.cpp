// rc11-refine — command-line contextual-refinement checker: given two
// programs with *identical client parts* (same client variables and client
// registers, in the same order), decide whether the concrete program
// refines the abstract one per the paper's Section 6.
//
// Usage:
//   rc11-refine [options] abstract.rc11 concrete.rc11
//
// Options: the flags every tool shares (tools/cli_common.hpp) fill one
// engine::RunOptions, plus --trace-only (skip the Def. 8 simulation, run
// only trace inclusion).  The tool builds the two state graphs once
// (refinement::build_graph_pair) and runs both checkers over that pair, so
// the budgets (--max-states, --mem-budget, --deadline-ms) bound each graph
// build and --threads parallelises builds and client projection.  What
// differs from the other tools:
//   --por             client-invisible ample reduction (graph edges stay
//                     single steps, so counterexamples replay unchanged)
//   --symmetry        quotients only the trace-inclusion product and
//                     implies --trace-only; verdicts and witnesses are
//                     unchanged, only the product-node count shrinks
//   --strategy sample[:N]  samples only the *concrete* graph (the abstract
//                     graph, the specification, stays exhaustive) and
//                     implies --trace-only: a violation found is definite
//                     (exit 2, replayable witness); a clean run is a lower
//                     bound (exit 3)
//   --witness FILE    the counterexample is a run of the *concrete* program;
//                     --replay re-executes one against it
//   --workers, --rf-quotient, --checkpoint, --resume  rejected by the
//                     library (exit 1): a two-graph check has no frontier to
//                     partition, no shared quotient key, and no single
//                     checkpoint to write
// SIGINT/SIGTERM drain whichever graph build is running; the tool still
// prints its partial report and exits 3.  RC11_FAULT injects faults.
//
// The abstract program typically uses abstract objects (lock/stack
// declarations); the concrete one inlines an implementation over library
// variables and `reg library` registers.  Exit status: 0 refines, 1 usage /
// parse errors, 2 refinement fails (or --replay diverged), 3 inconclusive:
// a graph stopped early (state cap, memory budget, deadline, Ctrl-C, fault)
// or the concrete graph was sampled, and no violation was found — a
// truncated check prints "inconclusive", never "fails".

#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "witness/witness.hpp"

namespace {

/// A check's verdict word: a truncated check that found nothing decides
/// nothing.
const char* verdict(bool holds, bool truncated) {
  if (!holds) return "fails";
  return truncated ? "inconclusive" : "holds";
}

rc11::witness::Json json_count(std::uint64_t n) {
  return rc11::witness::Json::integer(static_cast<std::int64_t>(n));
}

int usage() {
  std::cerr << "usage: rc11-refine " << rc11::cli::kCommonUsage
            << " [--trace-only] abstract.rc11 concrete.rc11\n";
  return rc11::cli::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rc11;

  std::string abs_path;
  std::string conc_path;
  cli::CommonOptions common;
  bool trace_only = false;

  for (int i = 1; i < argc; ++i) {
    switch (cli::parse_common_flag(argc, argv, i, common)) {
      case cli::FlagStatus::Consumed:
        continue;
      case cli::FlagStatus::Error:
        return usage();
      case cli::FlagStatus::NotMine:
        break;
    }
    const std::string arg = argv[i];
    if (arg == "--trace-only") {
      trace_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (abs_path.empty()) {
      abs_path = arg;
    } else if (conc_path.empty()) {
      conc_path = arg;
    } else {
      return usage();
    }
  }
  if (abs_path.empty() || conc_path.empty()) return usage();
  if (const std::string err = cli::resolve_strategy(common); !err.empty()) {
    std::cerr << "rc11-refine: " << err << "\n";
    return cli::kExitUsage;
  }
  if (common.mode == engine::Strategy::Sample && !trace_only) {
    // The Def. 8 simulation fixpoint needs the full concrete edge relation
    // (missing edges would let pairs survive vacuously); the trace-inclusion
    // game is the checker that stays sound on a sampled concrete subgraph.
    std::cout << "note: --strategy sample implies --trace-only (the Def. 8 "
                 "simulation needs the complete concrete graph)\n";
    trace_only = true;
  }
  if (common.symmetry && !trace_only) {
    // Only the trace-inclusion product is quotiented (see
    // refinement::SimulationOptions for why the fixpoint is not).
    std::cout << "note: --symmetry implies --trace-only (the Def. 8 "
                 "simulation fixpoint is not quotiented)\n";
    trace_only = true;
  }
  try {
    const auto abs = parser::parse_file(abs_path);
    const auto conc = parser::parse_file(conc_path);

    if (!common.replay_path.empty()) {
      return cli::run_replay(conc.sys, common);
    }
    std::optional<engine::Checkpoint> resume;
    cli::arm_run(common, resume);
    refinement::TraceInclusionOptions trace_opts;
    static_cast<engine::RunOptions&>(trace_opts) = common;
    const auto pair = refinement::build_graph_pair(abs.sys, conc.sys, common);

    bool refines = true;
    std::string inconclusive;  // why the first truncated check could not decide
    std::optional<witness::Witness> counterexample;
    auto summary = witness::Json::object();
    summary.set("tool", witness::Json::string("rc11-refine"));
    summary.set("abstract", witness::Json::string(abs_path));
    summary.set("concrete", witness::Json::string(conc_path));
    cli::set_strategy_json(summary, common);

    if (!trace_only) {
      const auto sim = refinement::check_forward_simulation(pair);
      std::cout << "forward simulation (Def. 8):  "
                << verdict(sim.holds, sim.truncated) << "  [abs "
                << sim.abstract_states << " states, conc "
                << sim.concrete_states << " states, " << sim.surviving_pairs
                << "/" << sim.candidate_pairs << " pairs survive]\n";
      if (common.stats) {
        std::cout << "  refinement iterations: " << sim.refinement_iterations
                  << "\n";
      }
      if (!sim.holds) {
        std::cout << "  diagnosis: " << sim.diagnosis << "\n";
        for (const auto& step : sim.counterexample) {
          std::cout << "    " << step << "\n";
        }
        if (sim.witness) counterexample = sim.witness;
      }
      refines = refines && sim.holds;
      if (sim.truncated && inconclusive.empty()) inconclusive = sim.diagnosis;

      auto sim_json = witness::Json::object();
      sim_json.set("holds", witness::Json::boolean(sim.holds));
      sim_json.set("abstract_states", json_count(sim.abstract_states));
      sim_json.set("concrete_states", json_count(sim.concrete_states));
      sim_json.set("candidate_pairs", json_count(sim.candidate_pairs));
      sim_json.set("surviving_pairs", json_count(sim.surviving_pairs));
      summary.set("simulation", std::move(sim_json));
    }

    const auto tr = refinement::check_trace_inclusion(pair, trace_opts);
    std::cout << "trace inclusion  (Defs. 5-7): "
              << verdict(tr.holds, tr.truncated) << "  [" << tr.product_nodes
              << " product nodes]\n";
    if (!tr.holds && !tr.what.empty()) {
      std::cout << "  witness: " << tr.what << "\n";
    }
    if (!tr.holds && tr.witness && !counterexample) {
      counterexample = tr.witness;
    }
    refines = refines && tr.holds;
    if (tr.truncated && inconclusive.empty()) inconclusive = tr.what;

    auto tr_json = witness::Json::object();
    tr_json.set("holds", witness::Json::boolean(tr.holds));
    tr_json.set("product_nodes", json_count(tr.product_nodes));
    summary.set("trace_inclusion", std::move(tr_json));

    if (!common.witness_path.empty()) {
      if (counterexample) {
        cli::write_witness(conc.sys, *counterexample, common.witness_path);
      } else {
        std::cout << "no counterexample run; " << common.witness_path
                  << " not written\n";
      }
    }

    summary.set("refines", witness::Json::boolean(refines));
    summary.set("inconclusive",
                witness::Json::boolean(refines && !inconclusive.empty()));
    if (!common.json_path.empty()) {
      cli::write_json_summary(summary, common.json_path);
    }

    // A found violation is definite even when coverage was partial — every
    // path to holds == false goes through a complete graph pair or a real
    // sampled run — so DOES NOT REFINE wins over INCONCLUSIVE (mirroring
    // rc11-verify's INVALID-beats-INCONCLUSIVE ordering).
    if (!refines) {
      std::cout << "DOES NOT REFINE\n";
      return cli::kExitFail;
    }
    if (!inconclusive.empty()) {
      std::cout << "INCONCLUSIVE: exploration truncated — " << inconclusive
                << "; no refinement violation found in the part examined\n";
      return cli::kExitInconclusive;
    }
    std::cout << "REFINES\n";
    return cli::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "rc11-refine: " << e.what() << "\n";
    return cli::kExitUsage;
  }
}
