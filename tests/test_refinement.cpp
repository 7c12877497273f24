// Tests for the contextual-refinement framework (Section 6): client
// projections, Definition 5 state refinement, the Definition 8 forward-
// simulation game (Propositions 9 and 10 for the sequence lock and ticket
// lock, plus the CAS spinlock), negative results for broken implementations,
// and the bounded Definition 6/7 trace-inclusion oracle.

#include <gtest/gtest.h>

#include "engine/checkpoint.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using lang::c;
using lang::Config;
using lang::System;
using locks::AbstractLock;
using locks::CasSpinLock;
using locks::ClientProgram;
using locks::instantiate;
using locks::SeqLock;
using locks::TicketLock;
using refinement::build_graph;
using refinement::build_graph_pair;
using refinement::check_forward_simulation;
using refinement::check_trace_inclusion;
using refinement::client_refines;
using refinement::project_client;

// --- client projection -------------------------------------------------------

TEST(ClientProjection, IgnoresLibraryState) {
  System sys;
  const auto x = sys.client_var("x", 0);
  const auto g = sys.library_var("g", 0);
  auto t0 = sys.thread();
  t0.store(g, c(1));
  t0.store(x, c(1));

  auto cfg = lang::initial_config(sys);
  const auto p0 = project_client(sys, cfg);
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // library write
  const auto p1 = project_client(sys, cfg);
  EXPECT_EQ(p0, p1) << "library writes must be invisible to the client";
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // client write
  const auto p2 = project_client(sys, cfg);
  EXPECT_NE(p0, p2);
}

TEST(ClientProjection, IgnoresLibraryRegisters) {
  System sys;
  sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto lr = t0.reg("lib_r", 0, memsem::Component::Library);
  t0.assign(lr, c(9));

  auto cfg = lang::initial_config(sys);
  const auto p0 = project_client(sys, cfg);
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;
  EXPECT_EQ(p0, project_client(sys, cfg));
}

TEST(ClientProjection, RefinementIsObsInclusion) {
  // Build two configurations of the same system differing only in how far a
  // thread's view has advanced: the further view refines the earlier one.
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store_rel(x, c(1));
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.load_acq(r, x);

  auto base = lang::initial_config(sys);
  base = lang::thread_successors(sys, base, 0)[0].after;  // x :=R 1
  // Thread 1 reads either init (view stays) or the new write (view moves).
  const auto steps = lang::thread_successors(sys, base, 1);
  ASSERT_EQ(steps.size(), 2u);
  const Config* stale = nullptr;
  const Config* fresh = nullptr;
  for (const auto& s : steps) {
    if (s.after.regs[1][r.id] == 0) stale = &s.after;
    if (s.after.regs[1][r.id] == 1) fresh = &s.after;
  }
  ASSERT_NE(stale, nullptr);
  ASSERT_NE(fresh, nullptr);
  // Registers differ, so these do not refine each other; but compare views
  // through hand-built projections of the same register state: use the
  // pre-read state vs itself.
  const auto p = project_client(sys, base);
  EXPECT_TRUE(client_refines(p, p)) << "refinement is reflexive";
}

// --- state graphs --------------------------------------------------------------

TEST(StateGraph, MatchesExplorerStateCount) {
  locks::ClientArtifacts art;
  AbstractLock lock;
  const auto sys = instantiate(locks::fig7_client(&art), lock);
  const auto graph = build_graph(sys);
  const auto result = explore::explore(sys);
  EXPECT_EQ(graph.num_states(), result.stats.states);
  EXPECT_EQ(graph.num_edges(), result.stats.transitions);
  EXPECT_EQ(graph.stop, engine::StopReason::Complete);
}

TEST(StateGraph, TruncationFlag) {
  locks::ClientArtifacts art;
  SeqLock lock;
  const auto sys = instantiate(locks::fig7_client(&art), lock);
  refinement::GraphOptions opts;
  opts.max_states = 10;
  const auto graph = build_graph(sys, opts);
  EXPECT_EQ(graph.stop, engine::StopReason::StateCap);
}

// --- Propositions 9 and 10 ------------------------------------------------------

struct NamedImpl {
  const char* label;
  std::function<std::unique_ptr<locks::LockObject>()> make;
};

class LockSimulation : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<NamedImpl> impls() {
    return {
        {"seqlock", [] { return std::make_unique<SeqLock>(); }},
        {"ticketlock", [] { return std::make_unique<TicketLock>(); }},
        {"cas-spinlock", [] { return std::make_unique<CasSpinLock>(); }},
        {"ttas-lock", [] { return std::make_unique<locks::TTASLock>(); }},
    };
  }
};

TEST_P(LockSimulation, Fig7ClientForwardSimulatesAbstractLock) {
  const auto impl = impls()[static_cast<std::size_t>(GetParam())];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::fig7_client(), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.concrete_states, result.abstract_states)
      << "implementations have strictly richer state spaces";
}

TEST_P(LockSimulation, MgcClientForwardSimulatesAbstractLock) {
  const auto impl = impls()[static_cast<std::size_t>(GetParam())];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::mgc_client(2, 1), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::mgc_client(2, 1), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
}

TEST_P(LockSimulation, CounterClientForwardSimulatesAbstractLock) {
  const auto impl = impls()[static_cast<std::size_t>(GetParam())];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::counter_client(2, 1), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::counter_client(2, 1), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
}

std::string impl_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "seqlock";
    case 1: return "ticketlock";
    case 2: return "cas_spinlock";
    default: return "ttas_lock";
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, LockSimulation, ::testing::Range(0, 4),
                         impl_name);

// --- negative results ------------------------------------------------------------

TEST(BrokenLocks, SeqLockWithRelaxedReleaseFailsSimulation) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds)
      << "a relaxed release breaks the specification's publication guarantee";
  EXPECT_FALSE(result.diagnosis.empty());
}

TEST(BrokenLocks, TicketLockWithRelaxedReleaseFailsSimulation) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  TicketLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
}

TEST(BrokenLocks, BrokenSeqLockExhibitsStaleClientRead) {
  // Ground truth for the negative simulation results: with the broken lock,
  // the client really can read stale data after "acquiring".
  locks::ClientArtifacts art;
  SeqLock broken{/*releasing_release=*/false};
  const auto sys = instantiate(locks::fig7_client(&art), broken);
  const auto result = explore::explore(sys);
  // art.regs = {ok0, ok1, r1, r2}; look for r1 = 0 with r2 = 5 or similar
  // stale outcomes that the abstract lock forbids.
  const auto outcomes = explore::final_register_values(
      sys, result, {art.regs[2], art.regs[3]});
  bool stale = false;
  for (const auto& o : outcomes) {
    if (!(o[0] == 0 && o[1] == 0) && !(o[0] == 5 && o[1] == 5)) stale = true;
  }
  EXPECT_TRUE(stale) << "broken lock must leak weak behaviour to the client";
}

TEST(CorrectLocks, SeqLockClientOutcomesMatchAbstract) {
  locks::ClientArtifacts abs_art;
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(&abs_art), abs);
  locks::ClientArtifacts conc_art;
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(&conc_art), conc);
  const auto abs_out = explore::final_register_values(
      abs_sys, explore::explore(abs_sys), {abs_art.regs[2], abs_art.regs[3]});
  const auto conc_out = explore::final_register_values(
      conc_sys, explore::explore(conc_sys), {conc_art.regs[2], conc_art.regs[3]});
  EXPECT_EQ(abs_out, conc_out);
  const std::vector<std::vector<lang::Value>> expected{{0, 0}, {5, 5}};
  EXPECT_EQ(abs_out, expected);
}

// --- bounded trace inclusion (Defs. 6/7 oracle) -----------------------------------

TEST(TraceInclusion, SeqLockRefinesAbstractOnFig7Client) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.what;
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.product_nodes, 0u);
}

TEST(TraceInclusion, BrokenSeqLockViolatesInclusion) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
  EXPECT_FALSE(result.what.empty());
}

TEST(TraceInclusion, ReflexivityOnAbstractSystem) {
  AbstractLock a1, a2;
  const auto s1 = instantiate(locks::fig7_client(), a1);
  const auto s2 = instantiate(locks::fig7_client(), a2);
  const auto result = check_trace_inclusion(s1, s2);
  EXPECT_TRUE(result.holds) << result.what;
}

TEST(TraceInclusion, TicketLockAlsoPasses) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  TicketLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.what;
}


// --- failure diagnostics -------------------------------------------------------

TEST(Diagnostics, FailedSimulationCarriesCounterexample) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  ASSERT_FALSE(result.holds);
  ASSERT_FALSE(result.counterexample.empty())
      << "a broken lock should have a concrete run no abstract state matches";
  // The trace must mention the broken relaxed release somewhere before the
  // divergence.
  bool mentions_broken = false;
  for (const auto& step : result.counterexample) {
    if (step.find("BROKEN") != std::string::npos) mentions_broken = true;
  }
  EXPECT_TRUE(mentions_broken) << "counterexample should pass through the "
                                  "relaxed release";
}

TEST(Diagnostics, SuccessfulSimulationHasNoCounterexample) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  ASSERT_TRUE(result.holds);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(Diagnostics, GraphLabelsOnDemand) {
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1), "x := 1");
  const auto unlabelled = build_graph(sys);
  EXPECT_TRUE(unlabelled.labels.empty());
  refinement::GraphOptions opts;
  opts.want_labels = true;
  const auto labelled = build_graph(sys, opts);
  ASSERT_EQ(labelled.labels.size(), labelled.num_states());
  ASSERT_FALSE(labelled.labels[0].empty());
  EXPECT_NE(labelled.labels[0][0].find("x := 1"), std::string::npos);
}

// --- one graph pair per check ------------------------------------------------

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

struct RefinementCase {
  std::string name;
  System abstract_sys;
  System concrete_sys;
};

/// Every abstract/concrete pair the refinement tests and tools check: the
/// lock implementations (correct and broken) under the fig. 7 and
/// most-general clients, and the sample programs rc11-refine is run on.
std::vector<RefinementCase> refinement_corpus() {
  std::vector<RefinementCase> corpus;
  const std::vector<std::pair<std::string, std::function<ClientProgram()>>>
      clients = {{"fig7", [] { return locks::fig7_client(); }},
                 {"mgc", [] { return locks::mgc_client(2, 1); }}};
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<locks::LockObject>()>>>
      impls = {
          {"seqlock", [] { return std::make_unique<SeqLock>(); }},
          {"ticketlock", [] { return std::make_unique<TicketLock>(); }},
          {"cas-spinlock", [] { return std::make_unique<CasSpinLock>(); }},
          {"ttas-lock", [] { return std::make_unique<locks::TTASLock>(); }},
          {"seqlock-broken", [] { return std::make_unique<SeqLock>(false); }},
          {"ticketlock-broken",
           [] { return std::make_unique<TicketLock>(false); }},
      };
  for (const auto& [client_name, client] : clients) {
    for (const auto& [impl_name, make] : impls) {
      AbstractLock abs;
      auto conc = make();
      corpus.push_back({client_name + "/" + impl_name,
                        instantiate(client(), abs),
                        instantiate(client(), *conc)});
    }
  }
  const auto abs = parser::parse_file(prog("lock_client_abstract.rc11"));
  for (const char* conc : {"lock_client_seqlock.rc11",
                           "lock_client_broken.rc11"}) {
    corpus.push_back({conc, abs.sys, parser::parse_file(prog(conc)).sys});
  }
  return corpus;
}

std::vector<std::uint64_t> witness_digests(
    const std::optional<witness::Witness>& w) {
  std::vector<std::uint64_t> out;
  if (!w) return out;
  for (const auto& step : w->steps) out.push_back(step.after_digest);
  return out;
}

// The pair forms, with the pair built on 1 and 4 workers, agree with the
// sequential system-pair forms field by field.
TEST(GraphPair, PairAndSystemFormsAgreeOnCorpus) {
  for (const auto& c : refinement_corpus()) {
    for (const bool por : {false, true}) {
      refinement::TraceInclusionOptions opts;
      opts.por = por;
      refinement::SimulationOptions sim_opts;
      sim_opts.por = por;
      const auto sim_ref =
          check_forward_simulation(c.abstract_sys, c.concrete_sys, sim_opts);
      const auto tr_ref =
          check_trace_inclusion(c.abstract_sys, c.concrete_sys, opts);
      EXPECT_FALSE(sim_ref.truncated) << c.name;
      EXPECT_FALSE(tr_ref.truncated) << c.name;
      // Def. 8 implies Def. 6, so a holding simulation forces inclusion.
      EXPECT_TRUE(!sim_ref.holds || tr_ref.holds) << c.name;

      for (const unsigned threads : {1U, 4U}) {
        opts.num_threads = threads;
        const auto pair =
            build_graph_pair(c.abstract_sys, c.concrete_sys, opts);
        const std::string what = c.name + (por ? " por" : "") + " threads " +
                                 std::to_string(threads);
        const auto sim = check_forward_simulation(pair);
        EXPECT_EQ(sim.holds, sim_ref.holds) << what;
        EXPECT_EQ(sim.truncated, sim_ref.truncated) << what;
        EXPECT_EQ(sim.abstract_states, sim_ref.abstract_states) << what;
        EXPECT_EQ(sim.concrete_states, sim_ref.concrete_states) << what;
        EXPECT_EQ(sim.candidate_pairs, sim_ref.candidate_pairs) << what;
        EXPECT_EQ(sim.surviving_pairs, sim_ref.surviving_pairs) << what;
        EXPECT_EQ(sim.diagnosis, sim_ref.diagnosis) << what;
        EXPECT_EQ(sim.counterexample, sim_ref.counterexample) << what;
        EXPECT_EQ(witness_digests(sim.witness),
                  witness_digests(sim_ref.witness))
            << what;

        const auto tr = check_trace_inclusion(pair, opts);
        EXPECT_EQ(tr.holds, tr_ref.holds) << what;
        EXPECT_EQ(tr.truncated, tr_ref.truncated) << what;
        EXPECT_EQ(tr.product_nodes, tr_ref.product_nodes) << what;
        EXPECT_EQ(tr.what, tr_ref.what) << what;
        EXPECT_EQ(witness_digests(tr.witness), witness_digests(tr_ref.witness))
            << what;
      }
    }
  }
}

TEST(GraphPair, AbstractExhaustiveConcreteLabelledAndSampled) {
  const auto abs = parser::parse_file(prog("lock_client_abstract.rc11"));
  const auto conc = parser::parse_file(prog("lock_client_seqlock.rc11"));
  engine::RunOptions opts;
  opts.mode = engine::Strategy::Sample;
  opts.sample.episodes = 50;
  const auto pair = build_graph_pair(abs.sys, conc.sys, opts);
  EXPECT_EQ(pair.abstract_graph.stop, engine::StopReason::Complete);
  EXPECT_TRUE(pair.abstract_graph.labels.empty());
  EXPECT_EQ(pair.concrete_graph.stop, engine::StopReason::EpisodeCap);
  EXPECT_EQ(pair.concrete_graph.labels.size(), pair.concrete_graph.num_states());
  EXPECT_EQ(pair.abstract_proj.size(), pair.abstract_graph.num_states());
  EXPECT_EQ(pair.concrete_proj.size(), pair.concrete_graph.num_states());
}

// A run cut short must never refute: with a 10-state cap both checkers
// report an inconclusive pass and no witness, on a refining pair and on a
// broken one alike.
TEST(GraphPair, TruncatedChecksAreInconclusiveNotRefuted) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock good;
  SeqLock broken{/*releasing_release=*/false};
  for (const auto& conc_sys : {instantiate(locks::fig7_client(), good),
                               instantiate(locks::fig7_client(), broken)}) {
    refinement::SimulationOptions sim_opts;
    sim_opts.max_states = 10;
    const auto sim = check_forward_simulation(abs_sys, conc_sys, sim_opts);
    EXPECT_TRUE(sim.holds);
    EXPECT_TRUE(sim.truncated);
    EXPECT_FALSE(sim.witness.has_value());
    EXPECT_TRUE(sim.counterexample.empty());
    EXPECT_NE(sim.diagnosis.find("state cap"), std::string::npos)
        << sim.diagnosis;

    refinement::TraceInclusionOptions tr_opts;
    tr_opts.max_states = 10;
    const auto tr = check_trace_inclusion(abs_sys, conc_sys, tr_opts);
    EXPECT_TRUE(tr.holds);
    EXPECT_TRUE(tr.truncated);
    EXPECT_FALSE(tr.witness.has_value());
    EXPECT_NE(tr.what.find("state cap"), std::string::npos) << tr.what;
  }
}

TEST(GraphPair, RejectsSettingsRefinementCannotHonour) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto rejected = [&](const engine::RunOptions& opts,
                            const std::string& flag) {
    try {
      (void)build_graph_pair(abs_sys, conc_sys, opts);
    } catch (const support::Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(flag, 0), 0u) << e.what();
      return;
    }
    ADD_FAILURE() << flag << " was not rejected";
  };
  engine::RunOptions workers;
  workers.workers = 2;
  rejected(workers, "--workers");
  engine::RunOptions rf;
  rf.rf_quotient = true;
  rejected(rf, "--rf-quotient");
  engine::RunOptions checkpoint;
  checkpoint.checkpoint_path = "refine.ckpt.json";
  rejected(checkpoint, "--checkpoint/--resume");
  const engine::Checkpoint saved;
  engine::RunOptions resume;
  resume.resume = &saved;
  rejected(resume, "--checkpoint/--resume");

  refinement::SimulationOptions sym;
  sym.symmetry = true;
  EXPECT_THROW((void)check_forward_simulation(abs_sys, conc_sys, sym),
               support::Error);
  refinement::TraceInclusionOptions tr_sym;
  tr_sym.symmetry = true;
  EXPECT_TRUE(check_trace_inclusion(abs_sys, conc_sys, tr_sym).holds);
}

}  // namespace
