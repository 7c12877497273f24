// Sampling strategy (engine/sample.hpp): seed determinism at every thread
// count, honest stop reasons (EpisodeCap vs the resource budgets), witness
// replay of sampled violations, guided-bias distribution shifts, loud
// rejection of checkpoint/resume, and verdict agreement with the exhaustive
// oracle on the small corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/budget.hpp"
#include "engine/checkpoint.hpp"
#include "engine/run.hpp"
#include "engine/sample.hpp"
#include "explore/explorer.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using engine::StopReason;
using engine::Strategy;
using explore::ExploreOptions;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

ExploreOptions sample_opts(std::uint64_t episodes, std::uint64_t seed) {
  ExploreOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = episodes;
  opts.sample.seed = seed;
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

// The lost-update invariant documented in ticket_worker_buggy.rc11.
constexpr const char* kBuggyInvariant =
    "done(t1) && done(t2) && done(t3) ==> !(definite(t3, x, 3) || "
    "definite(t3, x, 4) || definite(t3, x, 5))";

// --- strategy parsing and names ---------------------------------------------

TEST(Sample, ParseStrategy) {
  engine::RunOptions opts;

  EXPECT_TRUE(engine::parse_strategy("exhaustive", opts));
  EXPECT_EQ(opts.mode, Strategy::Exhaustive);
  EXPECT_FALSE(opts.por);
  EXPECT_TRUE(engine::parse_strategy("por", opts));
  EXPECT_EQ(opts.mode, Strategy::Exhaustive);
  EXPECT_TRUE(opts.por);

  opts = {};
  EXPECT_TRUE(engine::parse_strategy("sample", opts));
  EXPECT_EQ(opts.mode, Strategy::Sample);
  EXPECT_EQ(opts.sample.episodes, engine::SampleOptions{}.episodes);

  EXPECT_TRUE(engine::parse_strategy("sample:17", opts));
  EXPECT_EQ(opts.mode, Strategy::Sample);
  EXPECT_EQ(opts.sample.episodes, 17u);

  EXPECT_FALSE(engine::parse_strategy("", opts));
  EXPECT_FALSE(engine::parse_strategy("bogus", opts));
  EXPECT_FALSE(engine::parse_strategy("sample:", opts));
  EXPECT_FALSE(engine::parse_strategy("sample:0", opts));
  EXPECT_FALSE(engine::parse_strategy("sample:abc", opts));
  EXPECT_FALSE(engine::parse_strategy("sample:12x", opts));
  EXPECT_EQ(opts.sample.episodes, 17u);  // failed parses leave it untouched
}

TEST(Sample, StrategyAndStopReasonNames) {
  engine::RunOptions opts;
  EXPECT_EQ(engine::strategy_name(opts), std::string("exhaustive"));
  opts.por = true;
  EXPECT_EQ(engine::strategy_name(opts), std::string("por"));
  opts.por = false;
  opts.mode = Strategy::Sample;
  EXPECT_EQ(engine::strategy_name(opts), std::string("sample"));
  EXPECT_EQ(engine::stop_reason_from_string(
                engine::to_string(StopReason::EpisodeCap)),
            StopReason::EpisodeCap);
}

// --- seed determinism -------------------------------------------------------

// Episodes run strictly sequentially (the guided bias makes episode e depend
// on every earlier one), so the run must be identical at every --threads
// value, not merely equivalent.
TEST(Sample, SameSeedSameRunAtEveryThreadCount) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  ExploreOptions base = sample_opts(40, 7);

  std::optional<explore::ExploreResult> first;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ExploreOptions opts = base;
    opts.num_threads = threads;
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::EpisodeCap);
    EXPECT_EQ(result.stats.episodes, 40u);
    if (!first) {
      first = result;
      continue;
    }
    EXPECT_EQ(result.stats.states, first->stats.states) << threads;
    EXPECT_EQ(result.stats.transitions, first->stats.transitions) << threads;
    EXPECT_EQ(result.stats.finals, first->stats.finals) << threads;
    const auto regs = all_regs(program.sys);
    EXPECT_EQ(explore::final_register_values(program.sys, result, regs),
              explore::final_register_values(program.sys, *first, regs))
        << threads;
  }
}

TEST(Sample, DifferentSeedsDiverge) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  const auto a = explore::explore(program.sys, sample_opts(30, 1));
  const auto b = explore::explore(program.sys, sample_opts(30, 2));
  // Thirty 50-ish-step schedules over three threads agreeing step for step
  // across two seeds would mean the RNG is broken.
  EXPECT_NE(a.stats.states * 1000 + a.stats.transitions,
            b.stats.states * 1000 + b.stats.transitions);
}

// --- stop reasons -----------------------------------------------------------

TEST(Sample, FullBudgetStopsWithEpisodeCap) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto result = explore::explore(program.sys, sample_opts(5, 0));
  EXPECT_EQ(result.stop, StopReason::EpisodeCap);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stats.episodes, 5u);
}

// No schedule of these programs ever reaches a final or blocked state, so
// every episode runs until kDefaultEpisodeStepCap abandons it.  The counter
// has one schedule whose states are all distinct: the first episode visits
// exactly kDefaultEpisodeStepCap of them (the initial state plus every state
// but the last one reached), and the later episodes retrace it.
TEST(Sample, EpisodesAreAbandonedAtTheStepCap) {
  const auto counter = parser::parse_program(R"(
    thread t1 {
      reg n;
      while (n >= 0) { n := n + 1; }
    }
  )");
  auto result = explore::explore(counter.sys, sample_opts(3, 0));
  EXPECT_EQ(result.stop, StopReason::EpisodeCap);
  EXPECT_EQ(result.stats.episodes, 3u);
  EXPECT_EQ(result.stats.states, engine::kDefaultEpisodeStepCap);
  EXPECT_EQ(result.stats.transitions, engine::kDefaultEpisodeStepCap);
  EXPECT_EQ(result.stats.finals + result.stats.blocked, 0u);

  // Two threads spinning on flags nobody sets: every schedule spins.
  const auto spin = parser::parse_program(R"(
    var x = 0;
    var y = 0;
    thread t1 {
      reg a;
      do { a <-A x; } until (a == 1);
    }
    thread t2 {
      reg b;
      do { b <-A y; } until (b == 1);
    }
  )");
  result = explore::explore(spin.sys, sample_opts(4, 7));
  EXPECT_EQ(result.stop, StopReason::EpisodeCap);
  EXPECT_EQ(result.stats.episodes, 4u);
  EXPECT_GT(result.stats.states, 0u);
  EXPECT_EQ(result.stats.finals + result.stats.blocked, 0u);
}

TEST(Sample, StateCapWinsOverEpisodeCap) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  ExploreOptions opts = sample_opts(1000, 0);
  opts.max_states = 3;  // coverage cap: distinct states, not steps
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::StateCap);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.stats.states, 3u);
}

TEST(Sample, CancelStopsWithInterrupted) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  engine::CancelToken cancel;
  cancel.cancel();
  ExploreOptions opts = sample_opts(1000, 0);
  opts.cancel = &cancel;
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::Interrupted);
  EXPECT_TRUE(result.truncated);
}

// --- sampled violations carry replayable witnesses --------------------------

TEST(Sample, SampledViolationWitnessReplays) {
  const auto program = parser::parse_file(prog("ticket_worker_buggy.rc11"));
  const auto assertion =
      parser::parse_assertion(program, kBuggyInvariant);
  ExploreOptions opts = sample_opts(4096, 1);
  opts.track_traces = true;
  const auto result = explore::explore(
      program.sys, opts,
      [&assertion](const lang::System& s,
                   const lang::Config& c) -> std::optional<std::string> {
        if (assertion.eval(s, c)) return std::nullopt;
        return "lost update";
      });
  ASSERT_FALSE(result.violations.empty());
  const auto& v = result.violations.front();
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_FALSE(v.trace.empty());
  const auto replayed = witness::replay(program.sys, *v.witness);
  EXPECT_TRUE(replayed.ok) << replayed.error;
}

// --- guided bias ------------------------------------------------------------

// The bias is the only difference between the two runs, so any divergence
// proves it changes which schedules get drawn.  (It exists to escape spin
// loops: ticket_lock's do-until makes the unguided sampler re-draw the same
// spinning thread with full weight.)
TEST(Sample, GuidedBiasShiftsTheDistribution) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  ExploreOptions guided = sample_opts(60, 11);
  ExploreOptions unguided = sample_opts(60, 11);
  unguided.sample.guided = false;
  const auto g = explore::explore(program.sys, guided);
  const auto u = explore::explore(program.sys, unguided);
  EXPECT_NE(g.stats.states * 1000 + g.stats.transitions,
            u.stats.states * 1000 + u.stats.transitions);
}

// --- checkpoint/resume are rejected loudly ----------------------------------

TEST(Sample, CheckpointPathIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  ExploreOptions opts = sample_opts(5, 0);
  opts.checkpoint_path = ::testing::TempDir() + "sample.ckpt";
  EXPECT_THROW((void)explore::explore(program.sys, opts), support::Error);
}

TEST(Sample, ResumeIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  engine::Checkpoint ckpt;
  ExploreOptions opts = sample_opts(5, 0);
  opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, opts), support::Error);
}

// --- the exhaustive oracle --------------------------------------------------

// Every sampled outcome must be an exhaustive outcome (sampling only walks
// real schedules), and on a litmus-sized program a few hundred episodes
// reach the full outcome set.
TEST(Sample, OutcomesAgreeWithExhaustiveOracle) {
  for (const char* name : {"sb.rc11", "ticket_lock.rc11"}) {
    const auto program = parser::parse_file(prog(name));
    const auto regs = all_regs(program.sys);

    const auto oracle = explore::explore(program.sys);
    ASSERT_EQ(oracle.stop, StopReason::Complete) << name;
    const auto oracle_outcomes =
        explore::final_register_values(program.sys, oracle, regs);

    const auto sampled = explore::explore(program.sys, sample_opts(400, 3));
    EXPECT_LE(sampled.stats.states, oracle.stats.states) << name;
    const auto sampled_outcomes =
        explore::final_register_values(program.sys, sampled, regs);
    for (const auto& tuple : sampled_outcomes) {
      EXPECT_NE(std::find(oracle_outcomes.begin(), oracle_outcomes.end(),
                          tuple),
                oracle_outcomes.end())
          << name << ": sampled outcome not reachable exhaustively";
    }
    EXPECT_EQ(sampled_outcomes, oracle_outcomes)
        << name << ": 400 episodes should saturate a litmus-sized program";
  }
}

// Owicki-Gries under sampling: failures found are real, a clean sampled run
// is never a proof.
TEST(Sample, OutlineCheckUnderSampling) {
  const auto broken = parser::parse_file(prog("mp_broken_outline.rc11"));
  ASSERT_TRUE(broken.outline.has_value());
  og::OutlineCheckOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = 200;
  opts.sample.seed = 5;
  const auto invalid =
      og::check_outline(broken.sys, *broken.outline, opts);
  EXPECT_FALSE(invalid.valid);

  const auto verified = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(verified.outline.has_value());
  const auto clean =
      og::check_outline(verified.sys, *verified.outline, opts);
  EXPECT_TRUE(clean.valid);
  EXPECT_TRUE(clean.truncated()) << "a sampled pass is never a proof";
  EXPECT_EQ(clean.stop, StopReason::EpisodeCap);
}

// Refinement under sampling: only the concrete side is sampled, violations
// are definite, and a clean sampled game stays inconclusive.
TEST(Sample, TraceInclusionUnderSampling) {
  const auto abs = parser::parse_file(prog("lock_client_abstract.rc11"));
  const auto broken = parser::parse_file(prog("lock_client_broken.rc11"));
  const auto good = parser::parse_file(prog("lock_client_seqlock.rc11"));

  refinement::TraceInclusionOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = 200;
  opts.sample.seed = 1;

  const auto violated =
      refinement::check_trace_inclusion(abs.sys, broken.sys, opts);
  EXPECT_FALSE(violated.holds);

  const auto clean =
      refinement::check_trace_inclusion(abs.sys, good.sys, opts);
  EXPECT_TRUE(clean.holds);
  EXPECT_TRUE(clean.truncated) << "a clean sampled game is a lower bound";
}

// The headline scenario: the seeded lost-update bug that a 10^5-state
// exhaustive budget misses but a few thousand episodes find.
TEST(Sample, FindsTheBugExhaustiveSearchMisses) {
  const auto program = parser::parse_file(prog("ticket_worker_buggy.rc11"));
  const auto assertion = parser::parse_assertion(program, kBuggyInvariant);
  const auto invariant =
      [&assertion](const lang::System& s,
                   const lang::Config& c) -> std::optional<std::string> {
    if (assertion.eval(s, c)) return std::nullopt;
    return "lost update";
  };

  ExploreOptions exhaustive;
  exhaustive.max_states = 100'000;
  const auto blind = explore::explore(program.sys, exhaustive, invariant);
  EXPECT_TRUE(blind.violations.empty());
  EXPECT_EQ(blind.stop, StopReason::StateCap);

  const auto found =
      explore::explore(program.sys, sample_opts(4096, 1), invariant);
  EXPECT_FALSE(found.violations.empty());
  EXPECT_LT(found.stats.states, 100'000u)
      << "sampling finds it with far less coverage than the blind budget";
}

}  // namespace
