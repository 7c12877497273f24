// Resource governance and checkpoint/resume: budgets must stop runs with
// the honest StopReason at every thread count and POR setting, partial
// results must stay valid, injected faults must degrade gracefully (no
// deadlock, no lie about why the run ended), and a checkpointed run resumed
// later must reach verdicts identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "engine/budget.hpp"
#include "engine/checkpoint.hpp"
#include "engine/transition_system.hpp"
#include "explore/explorer.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using engine::StopReason;
using explore::ExploreOptions;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

/// A temp-file path that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<lang::Reg> all_regs(const lang::System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

// --- StopReason / FaultPlan parsing -----------------------------------------

TEST(Budget, StopReasonNamesRoundTrip) {
  for (const auto reason :
       {StopReason::Complete, StopReason::StateCap, StopReason::MemCap,
        StopReason::Deadline, StopReason::Interrupted,
        StopReason::InjectedFault, StopReason::EpisodeCap,
        StopReason::WorkerLost}) {
    EXPECT_EQ(engine::stop_reason_from_string(engine::to_string(reason)),
              reason);
  }
  EXPECT_THROW((void)engine::stop_reason_from_string("out-of-quota"),
               support::Error);
  EXPECT_THROW((void)engine::stop_reason_from_string(""), support::Error);
}

TEST(Budget, FaultPlanParses) {
  const auto insert = engine::FaultPlan::parse("insert:7");
  EXPECT_EQ(insert.kind, engine::FaultPlan::Kind::FailInsert);
  EXPECT_EQ(insert.at_state, 7u);

  const auto stall = engine::FaultPlan::parse("stall:12:250");
  EXPECT_EQ(stall.kind, engine::FaultPlan::Kind::Stall);
  EXPECT_EQ(stall.at_state, 12u);
  EXPECT_EQ(stall.stall_ms, 250u);

  const auto mem = engine::FaultPlan::parse("mem:3");
  EXPECT_EQ(mem.kind, engine::FaultPlan::Kind::TripMem);
  EXPECT_EQ(mem.at_state, 3u);
}

TEST(Budget, FaultPlanParsesProcessFaults) {
  const auto crash = engine::FaultPlan::parse("crash:4");
  EXPECT_EQ(crash.kind, engine::FaultPlan::Kind::None);
  ASSERT_EQ(crash.process.size(), 1u);
  EXPECT_EQ(crash.process[0].kind, engine::FaultPlan::Kind::Crash);
  EXPECT_EQ(crash.process[0].at_batch, 4u);
  EXPECT_EQ(crash.process[0].count, 1u);
  EXPECT_NE(crash.process_fault_at(4), nullptr);
  EXPECT_EQ(crash.process_fault_at(3), nullptr);
  EXPECT_EQ(crash.process_fault_at(5), nullptr);

  const auto repeated = engine::FaultPlan::parse("corrupt:2:100");
  ASSERT_EQ(repeated.process.size(), 1u);
  EXPECT_EQ(repeated.process[0].kind, engine::FaultPlan::Kind::Corrupt);
  EXPECT_EQ(repeated.process[0].at_batch, 2u);
  EXPECT_EQ(repeated.process[0].count, 100u);
  EXPECT_NE(repeated.process_fault_at(2), nullptr);
  EXPECT_NE(repeated.process_fault_at(101), nullptr);
  EXPECT_EQ(repeated.process_fault_at(102), nullptr);

  const auto hang = engine::FaultPlan::parse("hang:7");
  ASSERT_EQ(hang.process.size(), 1u);
  EXPECT_EQ(hang.process[0].kind, engine::FaultPlan::Kind::Hang);
}

TEST(Budget, FaultPlanParsesCommaSeparatedLists) {
  const auto plan = engine::FaultPlan::parse("crash:100,stall:200:50");
  EXPECT_EQ(plan.kind, engine::FaultPlan::Kind::Stall);
  EXPECT_EQ(plan.at_state, 200u);
  EXPECT_EQ(plan.stall_ms, 50u);
  ASSERT_EQ(plan.process.size(), 1u);
  EXPECT_EQ(plan.process[0].kind, engine::FaultPlan::Kind::Crash);
  EXPECT_EQ(plan.process[0].at_batch, 100u);

  const auto trio = engine::FaultPlan::parse("crash:1,hang:2,corrupt:3:4");
  EXPECT_EQ(trio.kind, engine::FaultPlan::Kind::None);
  ASSERT_EQ(trio.process.size(), 3u);
  EXPECT_TRUE(trio.armed());
}

TEST(Budget, FaultPlanRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "insert", "insert:", "insert:0", "insert:x", "stall:5", "stall:5:",
        "stall:0:10", "mem:-1", "oom:5", "insert:5:9", "crash", "crash:",
        "crash:0", "crash:x", "crash:5:0", "crash:5:x", "hang:5:2:9",
        "corrupt:", ",", "crash:5,", ",crash:5", "crash:5,,hang:6",
        "crash:5 ,hang:6"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)engine::FaultPlan::parse(bad), support::Error);
  }
}

TEST(Budget, FaultPlanRejectsDuplicateSpecs) {
  for (const char* bad :
       {"crash:5,crash:9", "hang:1,hang:1", "corrupt:2,corrupt:3:4",
        "insert:5,mem:9", "insert:5,insert:6", "stall:5:10,mem:2",
        "crash:1,insert:5,stall:2:10"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)engine::FaultPlan::parse(bad), support::Error);
  }
}

// --- Truncation exactness under contention ----------------------------------

// Every (threads, por) combination must stop for the *same* reason and leave
// partial stats that are internally consistent: the state cap admits at most
// max_states expansions, and every expanded state was really counted.
TEST(Budget, StateCapIdenticalAcrossThreadsAndPor) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " workers=" + std::to_string(workers));
      ExploreOptions opts;
      opts.max_states = 20;  // below the 47 (full) / 39 (POR) reachable
      opts.num_threads = workers;
      opts.por = por;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stop, StopReason::StateCap);
      EXPECT_TRUE(result.truncated);
      EXPECT_GE(result.stats.states, 1u);
      EXPECT_LE(result.stats.states, opts.max_states);
      EXPECT_GE(result.stats.transitions, result.stats.states - 1);
      EXPECT_GT(result.stats.peak_frontier, 0u);
      EXPECT_GT(result.stats.visited_bytes, 0u);
    }
  }
}

TEST(Budget, MemCapIdenticalAcrossThreadsAndPor) {
  // lock_client_seqlock has enough states that the every-32-claims probe
  // always fires before the frontier drains.
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " workers=" + std::to_string(workers));
      ExploreOptions opts;
      opts.max_visited_bytes = 64;  // absurdly small: first probe trips
      opts.num_threads = workers;
      opts.por = por;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stop, StopReason::MemCap);
      EXPECT_TRUE(result.truncated);
      EXPECT_GE(result.stats.states, 1u);
      EXPECT_GT(result.stats.visited_bytes, opts.max_visited_bytes);
    }
  }
}

TEST(Budget, PreCancelledTokenStopsImmediately) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  engine::CancelToken token;
  token.cancel();
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.cancel = &token;
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::Interrupted);
    EXPECT_TRUE(result.truncated);
    EXPECT_LT(result.stats.states, 47u);
  }
}

TEST(Budget, CancelMidRunDrainsWorkers) {
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  engine::CancelToken token;
  ExploreOptions opts;
  opts.num_threads = 4;
  opts.cancel = &token;
  // Hold one worker at the 10th claim so the cancel lands mid-run; peers
  // must keep draining and the join must not deadlock.
  opts.fault = engine::FaultPlan::parse("stall:10:100");
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const auto result = explore::explore(program.sys, opts);
  canceller.join();
  EXPECT_TRUE(result.truncated);
  // The stall makes Interrupted the overwhelmingly likely reason, but a
  // racing decision is fine as long as the run stopped honestly.
  EXPECT_NE(result.stop, StopReason::Complete);
}

// --- Fault injection --------------------------------------------------------

TEST(Budget, InjectedInsertFaultReportsItself) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.fault = engine::FaultPlan::parse("insert:10");
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::InjectedFault);
    EXPECT_LT(result.stats.states, 47u);
  }
}

TEST(Budget, InjectedMemFaultReportsMemCap) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  ExploreOptions opts;
  opts.fault = engine::FaultPlan::parse("mem:5");
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::MemCap);
}

TEST(Budget, StallFaultAloneStillCompletesExactly) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto regs = all_regs(program.sys);
  const auto baseline = explore::explore(program.sys, ExploreOptions{});
  ASSERT_EQ(baseline.stop, StopReason::Complete);

  ExploreOptions opts;
  opts.num_threads = 4;
  opts.fault = engine::FaultPlan::parse("stall:10:50");
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::Complete);
  EXPECT_EQ(result.stats.states, baseline.stats.states);
  EXPECT_EQ(explore::final_register_values(program.sys, result, regs),
            explore::final_register_values(program.sys, baseline, regs));
}

TEST(Budget, StallPlusDeadlineTripsDeadlineDeterministically) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.deadline_ms = 5;
    // The stalled claim probes the clock unconditionally after sleeping
    // past the deadline, so the reason is deterministic.
    opts.fault = engine::FaultPlan::parse("stall:10:100");
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::Deadline);
    EXPECT_TRUE(result.truncated);
  }
}

// Satellite regression for the deadline-probe granularity fix: a stall far
// longer than the deadline must not delay the Deadline decision to the end
// of the stall — the sliced sleep probes the clock between slices.
TEST(Budget, LongStallCannotOvershootDeadline) {
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  ExploreOptions opts;
  opts.deadline_ms = 40;
  opts.fault = engine::FaultPlan::parse("stall:10:20000");
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = explore::explore(program.sys, opts);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(result.stop, StopReason::Deadline);
  EXPECT_TRUE(result.truncated);
  // Well under the 20s stall; generous slack for loaded CI machines.
  EXPECT_LT(elapsed_ms, 5000);
}

// Deadline escalation at claim granularity: with slow claims, the
// every-32-claims cadence alone would overshoot a 30ms deadline by up to
// 31 claim times.  The first claim probes, sees the deadline inside the
// urgent window, and every following claim probes — so the trip happens
// before the counter-based probe at claim 32 ever fires.
TEST(Budget, DeadlineProbeEscalatesToEveryClaim) {
  const engine::Budget budget{.max_states = 1'000'000,
                              .max_visited_bytes = 0,
                              .deadline_ms = 30};
  engine::BudgetEnforcer enforcer(budget, nullptr, engine::FaultPlan{},
                                  [] { return std::uint64_t{0}; });
  std::uint64_t claims = 0;
  StopReason stop = StopReason::Complete;
  while (stop == StopReason::Complete && claims < 2 * engine::kBudgetCheckInterval) {
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    stop = enforcer.claim();
    claims += 1;
  }
  EXPECT_EQ(stop, StopReason::Deadline);
  // ~8 claims of 4ms pass the 30ms deadline; without per-claim escalation
  // the first probe would only happen at claim 32 (~128ms late).
  EXPECT_LT(claims, engine::kBudgetCheckInterval);
}

// --- Checkpoint / resume ----------------------------------------------------

/// Runs `name` truncated at half its reachable-state count, checkpoints,
/// resumes, and requires the resumed run's verdicts to equal an
/// uninterrupted run bit for bit.
void roundtrip_case(const std::string& name, unsigned workers, bool por) {
  SCOPED_TRACE(name + " workers=" + std::to_string(workers) +
               " por=" + std::to_string(por));
  const auto program = parser::parse_file(prog(name));
  const auto regs = all_regs(program.sys);

  ExploreOptions full_opts;
  full_opts.num_threads = workers;
  full_opts.por = por;
  const auto full = explore::explore(program.sys, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_GE(full.stats.states, 4u) << "program too small to interrupt";

  TempFile ck("budget_roundtrip_" + name + std::to_string(workers) +
              (por ? "p" : "") + ".json");
  ExploreOptions trunc_opts = full_opts;
  trunc_opts.max_states = full.stats.states / 2;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated = explore::explore(program.sys, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  EXPECT_EQ(ckpt.stop, StopReason::StateCap);
  EXPECT_EQ(ckpt.por, por);
  EXPECT_GE(ckpt.states.size(), truncated.stats.states);

  ExploreOptions resume_opts = full_opts;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(program.sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.transitions, full.stats.transitions);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
  EXPECT_EQ(resumed.stats.blocked, full.stats.blocked);
  EXPECT_EQ(explore::final_register_values(program.sys, resumed, regs),
            explore::final_register_values(program.sys, full, regs));
}

TEST(Checkpoint, ResumeMatchesUninterruptedRun) {
  // Three corpus families — a lock implementation, a data structure client
  // and a seqlock client — each resumed with 4 workers and POR on (plus a
  // sequential unreduced sanity combination).
  for (const auto* name :
       {"ticket_lock.rc11", "mp_stack.rc11", "lock_client_seqlock.rc11"}) {
    roundtrip_case(name, 4, true);
    roundtrip_case(name, 1, false);
  }
}

TEST(Checkpoint, ResumeCanChangeThreadCountAndStrategy) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto full = explore::explore(program.sys, ExploreOptions{});

  TempFile ck("budget_threads.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 20;
  trunc_opts.num_threads = 1;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.num_threads = 4;  // checkpointed sequentially, resumed parallel
  resume_opts.strategy = explore::SearchStrategy::Bfs;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(program.sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
}

TEST(Checkpoint, PorMismatchIsRejected) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  TempFile ck("budget_pormismatch.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 15;
  trunc_opts.por = true;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.por = false;  // mismatch
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, resume_opts),
               support::Error);
}

TEST(Checkpoint, JsonRoundTripPreservesEverything) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_json.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);

  const auto a = engine::load_checkpoint(ck.path);
  const auto b = engine::from_json(engine::to_json(a));
  EXPECT_EQ(b.version, a.version);
  EXPECT_EQ(b.por, a.por);
  EXPECT_EQ(b.stop, a.stop);
  EXPECT_EQ(b.stats.states, a.stats.states);
  EXPECT_EQ(b.stats.visited_bytes, a.stats.visited_bytes);
  ASSERT_EQ(b.states.size(), a.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(b.states[i].parent, a.states[i].parent);
    EXPECT_EQ(b.states[i].thread, a.states[i].thread);
    EXPECT_EQ(b.states[i].label, a.states[i].label);
    EXPECT_EQ(b.states[i].enqueued, a.states[i].enqueued);
    EXPECT_EQ(b.states[i].encoding, a.states[i].encoding);
  }
}

TEST(Checkpoint, MalformedDocumentsAreRejected) {
  EXPECT_THROW((void)engine::from_json("not json"), support::Error);
  EXPECT_THROW((void)engine::from_json("{}"), support::Error);
  EXPECT_THROW(
      (void)engine::from_json(R"({"format":"rc11-witness","version":1})"),
      support::Error);
  EXPECT_THROW((void)engine::load_checkpoint("/nonexistent/ckpt.json"),
               support::Error);
}

TEST(Checkpoint, UnsupportedVersionIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_version.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);
  auto ckpt = engine::load_checkpoint(ck.path);
  auto doc = engine::to_json(ckpt);
  const auto pos = doc.find("\"version\": 1");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 12, "\"version\": 2");
  EXPECT_THROW((void)engine::from_json(doc), support::Error);
}

TEST(Checkpoint, TamperedEncodingFailsReconstruction) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_tamper.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);

  auto ckpt = engine::load_checkpoint(ck.path);
  ASSERT_GE(ckpt.states.size(), 2u);
  ckpt.states[1].encoding[0] ^= 0xdeadbeef;  // corrupt a non-root state

  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, resume_opts),
               support::Error);
}

TEST(Checkpoint, WrongProgramIsRejected) {
  const auto ticket = parser::parse_file(prog("ticket_lock.rc11"));
  TempFile ck("budget_wrongprog.json");
  ExploreOptions opts;
  opts.max_states = 20;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(ticket.sys, opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  const auto other = parser::parse_file(prog("sb.rc11"));
  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(other.sys, resume_opts),
               support::Error);
}

// A resumed run is a first-class run: invariant violations found after the
// resume still carry replayable witnesses.
TEST(Checkpoint, ResumedRunViolationsCarryReplayableWitnesses) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto invariant =
      [](const lang::System& sys,
         const lang::Config& cfg) -> std::optional<std::string> {
    if (cfg.all_done(sys)) return "final state reached";
    return std::nullopt;
  };

  TempFile ck("budget_witness.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 5;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  resume_opts.track_traces = true;
  const auto resumed = explore::explore(program.sys, resume_opts, invariant);
  ASSERT_FALSE(resumed.violations.empty());
  for (const auto& v : resumed.violations) {
    ASSERT_TRUE(v.witness.has_value());
    const auto r = witness::replay(program.sys, *v.witness);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

/// What a checker run reports that resume and worker count must not move:
/// the state-space counters plus a rendering of the verdict.
struct CheckerOutcome {
  engine::ExploreStats stats;
  StopReason stop = StopReason::Complete;
  std::string verdict;
};

// Every checker rides the run harness (engine/run.hpp): for explore, race
// and og, under each reduction the checker accepts, a run truncated at the
// state cap — checkpointed by an in-process or a 2-worker run — resumes to
// the uninterrupted run's stats and verdict; and a 2-worker run agrees with
// the in-process one.
TEST(Checkpoint, OutlineCheckResumes) {
  const auto ticket = parser::parse_file(prog("ticket_lock.rc11"));
  const auto racy = parser::parse_file(prog("dcl_broken.rc11"));
  const auto outlined = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(outlined.outline.has_value());

  struct Checker {
    const char* name;
    std::function<CheckerOutcome(const engine::RunOptions&)> run;
  };
  const Checker checkers[] = {
      {"explore",
       [&](const engine::RunOptions& base) {
         ExploreOptions o;
         static_cast<engine::RunOptions&>(o) = base;
         const auto r = explore::explore(ticket.sys, o);
         std::string verdict;
         for (const auto& tuple : explore::final_register_values(
                  ticket.sys, r, all_regs(ticket.sys))) {
           for (const auto v : tuple) verdict += std::to_string(v) + ",";
           verdict += ";";
         }
         return CheckerOutcome{r.stats, r.stop, verdict};
       }},
      {"race",
       [&](const engine::RunOptions& base) {
         race::RaceOptions o;
         static_cast<engine::RunOptions&>(o) = base;
         const auto r = race::check(racy.sys, o);
         std::string verdict;
         for (const auto& race : r.races) verdict += race.what + ";";
         return CheckerOutcome{r.stats, r.stop, verdict};
       }},
      {"og",
       [&](const engine::RunOptions& base) {
         og::OutlineCheckOptions o;
         static_cast<engine::RunOptions&>(o) = base;
         const auto r = og::check_outline(outlined.sys, *outlined.outline, o);
         return CheckerOutcome{
             r.stats, r.stop,
             (r.valid ? "valid " : "invalid ") +
                 std::to_string(r.obligations_checked) + " " +
                 std::to_string(r.failures.size())};
       }},
  };
  const auto expect_same = [](const CheckerOutcome& a, const CheckerOutcome& b,
                              bool transitions, const std::string& what) {
    EXPECT_EQ(a.stop, b.stop) << what;
    EXPECT_EQ(a.stats.states, b.stats.states) << what;
    if (transitions) {
      EXPECT_EQ(a.stats.transitions, b.stats.transitions) << what;
    }
    EXPECT_EQ(a.stats.finals, b.stats.finals) << what;
    EXPECT_EQ(a.stats.blocked, b.stats.blocked) << what;
    EXPECT_EQ(a.verdict, b.verdict) << what;
  };

  for (const auto& checker : checkers) {
    for (const char* reduction : {"plain", "por", "rf_quotient"}) {
      engine::RunOptions base;
      base.por = std::string(reduction) == "por";
      base.rf_quotient = std::string(reduction) == "rf_quotient";
      const std::string what = std::string(checker.name) + " " + reduction;

      const auto full = checker.run(base);
      ASSERT_EQ(full.stop, StopReason::Complete) << what;
      ASSERT_GT(full.stats.states, 2u) << what;

      // The supervised run visits the same states and reaches the same
      // verdict (sleep sets, which prune only transitions, ride along with
      // the quotient in-process alone).
      engine::RunOptions supervised = base;
      supervised.workers = 2;
      expect_same(full, checker.run(supervised), !base.rf_quotient,
                  what + " workers=2");

      for (const unsigned writer : {0u, 2u}) {
        const std::string case_name =
            what + " checkpointed by workers=" + std::to_string(writer);
        TempFile ck("budget_resume.json");
        engine::RunOptions trunc = base;
        trunc.max_states = full.stats.states / 2;
        trunc.checkpoint_path = ck.path;
        trunc.workers = writer;
        ASSERT_EQ(checker.run(trunc).stop, StopReason::StateCap) << case_name;

        const auto ckpt = engine::load_checkpoint(ck.path);
        EXPECT_EQ(ckpt.por, base.por) << case_name;
        EXPECT_EQ(ckpt.rf_quotient, base.rf_quotient) << case_name;
        engine::RunOptions resume = base;
        resume.resume = &ckpt;
        expect_same(full, checker.run(resume), true, case_name);
      }
    }
  }
}

}  // namespace
