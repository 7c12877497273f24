// Parallel-vs-sequential equivalence of the explorer: for every sample
// program and every litmus test, explore() with 1, 2 and 8 workers must
// produce the same set of final configurations, the same outcome sets, the
// same statistics and the same truncation/violation verdicts.  The schedule
// may differ; the answers may not.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/reach.hpp"
#include "engine/sharded_visited.hpp"
#include "explore/explorer.hpp"
#include "litmus/litmus.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "parser/parser.hpp"
#include "support/hash.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using explore::ExploreOptions;
using lang::Config;
using lang::System;

const unsigned kThreadCounts[] = {1, 2, 8};

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

const char* kPrograms[] = {
    "lock_client_abstract.rc11", "lock_client_broken.rc11",
    "lock_client_seqlock.rc11",  "mp_broken_outline.rc11",
    "mp_stack.rc11",             "mp_verified.rc11",
    "sb.rc11",                   "ticket_lock.rc11",
};

std::vector<lang::Reg> all_regs(const System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

/// Canonical fingerprint of the final-configuration set (already sorted by
/// the explorer, so equality is set equality).
std::vector<std::vector<std::uint64_t>> final_encodings(
    const explore::ExploreResult& result) {
  std::vector<std::vector<std::uint64_t>> encodings;
  encodings.reserve(result.final_configs.size());
  for (const auto& cfg : result.final_configs) {
    encodings.push_back(cfg.encode());
  }
  return encodings;
}

TEST(ParallelExplore, SampleProgramsMatchSequential) {
  for (const auto* name : kPrograms) {
    SCOPED_TRACE(name);
    const auto program = parser::parse_file(prog(name));
    const auto regs = all_regs(program.sys);

    ExploreOptions opts;
    opts.num_threads = 1;
    const auto baseline = explore::explore(program.sys, opts);
    const auto base_outcomes =
        explore::final_register_values(program.sys, baseline, regs);
    const auto base_finals = final_encodings(baseline);

    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      opts.num_threads = workers;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stats.states, baseline.stats.states);
      EXPECT_EQ(result.stats.transitions, baseline.stats.transitions);
      EXPECT_EQ(result.stats.finals, baseline.stats.finals);
      EXPECT_EQ(result.stats.blocked, baseline.stats.blocked);
      EXPECT_EQ(result.truncated, baseline.truncated);
      EXPECT_EQ(final_encodings(result), base_finals);
      EXPECT_EQ(explore::final_register_values(program.sys, result, regs),
                base_outcomes);
    }
  }
}

TEST(ParallelExplore, LitmusSuiteOutcomeSetsIdentical) {
  for (const auto& test : litmus::all_tests()) {
    SCOPED_TRACE(test.name);
    for (const unsigned workers : kThreadCounts) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      EXPECT_EQ(litmus::reachable_outcomes(test, workers), test.allowed);
      EXPECT_TRUE(litmus::check(test, workers));
    }
  }
}

// Every path through the in-process driver reaches the same states at every
// worker count: plain, traced, POR with and without a trace sink, each
// quotient with sleep sets, and sleep sets alone.  A quotient visits
// one member of each class, and which one depends on the schedule, so
// finals are compared by the path's abstract key.  The counters that depend
// on which arrival wins a race (por_chained under a trace sink, sleep skips,
// symmetry hits, rf merges) are left out.
struct DriverPath {
  const char* name;
  bool traced = false;
  bool por = false;
  bool symmetry = false;
  bool rf_quotient = false;
  bool sleep = false;
};

const DriverPath kDriverPaths[] = {
    {.name = "plain"},
    {.name = "traced", .traced = true},
    {.name = "por", .por = true},
    {.name = "por+traced", .traced = true, .por = true},
    {.name = "symmetry+sleep", .symmetry = true, .sleep = true},
    {.name = "rf_quotient+sleep", .rf_quotient = true, .sleep = true},
    {.name = "sleep", .sleep = true},
};

struct DriverRun {
  engine::ExploreStats stats;
  std::vector<std::vector<std::uint64_t>> finals;  ///< sorted abstract keys
};

DriverRun run_driver(const System& sys, const DriverPath& path,
                     unsigned workers) {
  engine::ReachOptions opts;
  opts.num_threads = workers;
  opts.por = path.por;
  opts.symmetry = path.symmetry;
  opts.rf_quotient = path.rf_quotient;
  opts.sleep_sets = path.sleep;
  std::optional<engine::ShardedVisitedSet> sink;
  if (path.traced) opts.trace = &sink.emplace();
  const std::unique_ptr<engine::StateAbstraction> abs =
      path.symmetry      ? engine::make_symmetry_abstraction(sys)
      : path.rf_quotient ? engine::make_rf_quotient_abstraction(sys, {})
                         : engine::make_concrete_abstraction();
  DriverRun run;
  std::mutex mu;
  engine::AbstractKey key;
  const auto result = engine::visit_reachable(
      sys, opts,
      [&](const Config& cfg, std::uint64_t,
          std::span<const lang::Step> steps) {
        if (steps.empty() && cfg.all_done(sys)) {
          const std::lock_guard<std::mutex> lock(mu);
          abs->key(cfg, key);
          run.finals.push_back(key.encoding);
        }
        return true;
      });
  EXPECT_EQ(result.stop, engine::StopReason::Complete);
  run.stats = result.stats;
  std::sort(run.finals.begin(), run.finals.end());
  return run;
}

TEST(ParallelExplore, EveryDriverPathMatchesSequential) {
  std::vector<std::string> names(std::begin(kPrograms), std::end(kPrograms));
  names.emplace_back("ticket_worker.rc11");
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto program = parser::parse_file(prog(name));
    for (const DriverPath& path : kDriverPaths) {
      SCOPED_TRACE(path.name);
      const DriverRun baseline = run_driver(program.sys, path, 1);
      for (const unsigned workers : {2U, 8U}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const DriverRun run = run_driver(program.sys, path, workers);
        EXPECT_EQ(run.stats.states, baseline.stats.states);
        EXPECT_EQ(run.stats.transitions, baseline.stats.transitions);
        EXPECT_EQ(run.stats.finals, baseline.stats.finals);
        EXPECT_EQ(run.stats.blocked, baseline.stats.blocked);
        EXPECT_EQ(run.stats.por_reduced, baseline.stats.por_reduced);
        EXPECT_EQ(run.finals, baseline.finals);
      }
    }
  }
}

// An invariant that fires somewhere in the middle of the state space: the
// protected counter x reaches 2 in every terminating run of the broken lock
// client, so every thread count must find *a* violation when stopping early
// and the *same full set* when collecting all of them.
TEST(ParallelExplore, ViolationPresenceIdentical) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto invariant = [](const System& sys,
                            const Config& cfg) -> std::optional<std::string> {
    // Both threads terminated: flag every final state.
    if (cfg.all_done(sys)) return "final state reached";
    return std::nullopt;
  };

  for (const bool stop_early : {true, false}) {
    SCOPED_TRACE(stop_early ? "stop_on_violation" : "collect all");
    std::vector<std::vector<std::pair<std::string, std::string>>> reported;
    for (const unsigned workers : kThreadCounts) {
      ExploreOptions opts;
      opts.num_threads = workers;
      opts.stop_on_violation = stop_early;
      const auto result = explore::explore(program.sys, opts, invariant);
      EXPECT_FALSE(result.violations.empty())
          << "workers=" << workers << ": violation must be found";
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const auto& v : result.violations) {
        pairs.emplace_back(v.what, v.state_dump);
      }
      reported.push_back(std::move(pairs));
    }
    if (!stop_early) {
      // Without early stop the full violation set is schedule-independent.
      EXPECT_EQ(reported[1], reported[0]);
      EXPECT_EQ(reported[2], reported[0]);
    }
  }
}

// Under a max_states budget different schedules visit different subsets, so
// identical outcomes cannot be demanded — but every thread count must report
// the truncation, and every truncated outcome set must be a subset of the
// full one.
TEST(ParallelExplore, TruncationReportedAndSound) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto regs = all_regs(program.sys);

  ExploreOptions full_opts;
  const auto full = explore::explore(program.sys, full_opts);
  ASSERT_FALSE(full.truncated);
  const auto full_outcomes =
      explore::final_register_values(program.sys, full, regs);

  for (const unsigned workers : kThreadCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.max_states = 20;  // well below the 47 reachable states
    const auto result = explore::explore(program.sys, opts);
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.stop, engine::StopReason::StateCap);
    EXPECT_LE(result.stats.states, opts.max_states);
    const auto outcomes =
        explore::final_register_values(program.sys, result, regs);
    EXPECT_TRUE(std::includes(full_outcomes.begin(), full_outcomes.end(),
                              outcomes.begin(), outcomes.end()))
        << "truncated outcomes must be a subset of the full outcome set";
  }
}

// The StopReason is schedule-independent: whichever worker trips the limit,
// every (threads, por) combination over every sample program reports the
// same reason for the same budget.
TEST(ParallelExplore, StopReasonIdenticalAcrossSchedules) {
  for (const auto* name : kPrograms) {
    SCOPED_TRACE(name);
    const auto program = parser::parse_file(prog(name));
    for (const bool por : {false, true}) {
      ExploreOptions base_opts;
      base_opts.por = por;
      const auto full = explore::explore(program.sys, base_opts);
      if (full.stats.states < 8) continue;  // too small to truncate honestly
      for (const unsigned workers : kThreadCounts) {
        SCOPED_TRACE("por=" + std::to_string(por) +
                     " workers=" + std::to_string(workers));
        ExploreOptions opts;
        opts.num_threads = workers;
        opts.por = por;
        opts.max_states = 5;
        const auto result = explore::explore(program.sys, opts);
        EXPECT_EQ(result.stop, engine::StopReason::StateCap);
        EXPECT_TRUE(result.truncated);
        EXPECT_LE(result.stats.states, opts.max_states);
      }
    }
  }
}

TEST(ParallelExplore, ZeroResolvesToHardwareConcurrency) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  ExploreOptions opts;
  opts.num_threads = 0;  // hardware concurrency, whatever it is
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stats.states, 14u);
  EXPECT_EQ(result.stats.finals, 4u);
}

// Stress insert_traced/path_to under *real* contention: a single shard means
// every insert of every worker serialises on one mutex, which is the worst
// case for the id-assignment + parent-recording atomicity the witness
// subsystem depends on.  Eight workers race a hand-rolled BFS over the
// ticket-lock/most-general-client graph (331 states), then every interned
// state's reconstructed path must replay through the full semantics, step by
// step, onto the state it claims to reach.
TEST(ParallelExplore, TracedInsertsOnOneShardReplayUnderContention) {
  locks::TicketLock lock;
  const System sys = locks::instantiate(locks::mgc_client(2, 2), lock);

  engine::ShardedVisitedSet visited(1);  // force all workers onto one mutex

  const Config init = lang::initial_config(sys);
  std::vector<std::uint64_t> enc;
  init.encode_into(enc);
  const auto root = visited.insert_traced(
      enc, engine::ShardedVisitedSet::kNoState, 0, "");
  ASSERT_TRUE(root.inserted);

  std::mutex mu;
  std::vector<std::pair<Config, std::uint64_t>> frontier{{init, root.id}};
  std::vector<std::uint64_t> ids{root.id};
  std::atomic<unsigned> working{0};

  constexpr unsigned kWorkers = 8;
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      std::vector<std::uint64_t> scratch;
      for (;;) {
        std::pair<Config, std::uint64_t> item{init, 0};  // placeholder copy
        {
          std::lock_guard<std::mutex> lk(mu);
          if (frontier.empty()) {
            if (working.load() == 0) return;  // drained and nobody producing
            continue;
          }
          item = std::move(frontier.back());
          frontier.pop_back();
          working.fetch_add(1);
        }
        for (auto& step : lang::successors(sys, item.first, true)) {
          scratch.clear();
          step.after.encode_into(scratch);
          const auto ins = visited.insert_traced(
              scratch, item.second, step.thread, std::move(step.label));
          if (!ins.inserted) continue;
          std::lock_guard<std::mutex> lk(mu);
          ids.push_back(ins.id);
          frontier.emplace_back(std::move(step.after), ins.id);
        }
        working.fetch_sub(1);
      }
    });
  }
  for (auto& t : workers) t.join();

  // The racing BFS visited exactly the full reachable graph.
  const auto reference = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(ids.size(), reference.stats.states);
  EXPECT_EQ(visited.size(), reference.stats.states);

  // Every interned state gets a replayable path: wrap path_to's edges as a
  // witness (digests recovered from the interned encodings) and push it
  // through witness::replay, which re-executes against lang::successors.
  std::vector<std::uint64_t> words;
  for (const auto id : ids) {
    const auto edges = visited.path_to(id);
    witness::Witness w;
    w.kind = "invariant";
    w.source = "test";
    w.initial_digest = witness::config_digest(init);
    for (const auto& edge : edges) {
      words.clear();
      visited.decode_state(edge.state, words);
      w.steps.push_back({edge.thread, edge.label, support::hash_words(words)});
    }
    const auto r = witness::replay(sys, w);
    ASSERT_TRUE(r.ok) << "path to state " << id << ": " << r.error;
    ASSERT_EQ(r.steps_applied, edges.size());
  }
}

// --- the pool's hand-off paths -----------------------------------------------

// Three threads with long critical sections under one abstract lock: while a
// thread holds the lock, the others are blocked on acquire, so each critical
// section is a run of single-successor states.  A worker walking one leaves
// nothing on its stack to hand off, its peers run dry and wait idle, and a
// release branches the search again and feeds them.
constexpr const char* kHandoffProgram = R"(
var x = 0;
var y = 0;
lock library l;

thread t1 {
  reg ok1; reg a1; reg r1;
  ok1 <- l.acquire();
  a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1;
  a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1; a1 := a1 + 1;
  x := a1;
  l.release();
  r1 <- y;
  y := 1;
}

thread t2 {
  reg ok2; reg a2; reg r2;
  ok2 <- l.acquire();
  a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2;
  a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2; a2 := a2 + 2;
  y := a2;
  l.release();
  r2 <- x;
  x := 2;
}

thread t3 {
  reg ok3; reg a3; reg r3;
  ok3 <- l.acquire();
  a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3;
  a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3; a3 := a3 + 3;
  r3 <- x;
  l.release();
  y := a3;
}
)";

const unsigned kHandoffWorkers[] = {2, 4, 8};

TEST(ParallelExplore, HandoffCountsMatchOneWorker) {
  const auto program = parser::parse_program(kHandoffProgram);
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    ExploreOptions opts;
    opts.track_traces = traced;
    opts.num_threads = 1;
    const auto baseline = explore::explore(program.sys, opts);
    ASSERT_EQ(baseline.stop, engine::StopReason::Complete);
    ASSERT_GT(baseline.stats.states, 100u);
    for (const unsigned workers : kHandoffWorkers) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      opts.num_threads = workers;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stop, engine::StopReason::Complete);
      EXPECT_EQ(result.stats.states, baseline.stats.states);
      EXPECT_EQ(result.stats.transitions, baseline.stats.transitions);
      EXPECT_EQ(result.stats.finals, baseline.stats.finals);
      EXPECT_EQ(result.stats.blocked, baseline.stats.blocked);
      EXPECT_EQ(final_encodings(result), final_encodings(baseline));
    }
  }
}

// One thread counting in a loop: every state has one successor, so the
// pool's other workers run dry at once and wait for the whole run.
constexpr const char* kChainProgram = R"(
var x = 0;

thread t1 {
  reg a;
  do { a := a + 1; } until (a == 3000);
  x := a;
}
)";

// The invariant fires two thirds of the way along the chain, while every
// peer of the worker walking it waits for work.  The veto must wake them:
// the run returns, Complete, with the violation.
TEST(ParallelExplore, VetoWhilePeersWaitReturns) {
  const auto program = parser::parse_program(kChainProgram);
  const auto invariant = [](const System&,
                            const Config& cfg) -> std::optional<std::string> {
    if (cfg.regs[0][0] == 2000) return "counted to 2000";
    return std::nullopt;
  };
  for (const unsigned workers : {1U, 2U, 4U, 8U}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.stop_on_violation = true;
    const auto result = explore::explore(program.sys, opts, invariant);
    EXPECT_EQ(result.stop, engine::StopReason::Complete);
    ASSERT_FALSE(result.violations.empty());
    EXPECT_EQ(result.violations.front().what, "counted to 2000");
    EXPECT_LT(result.stats.states, 6000U);
  }
}

// A state cap taken by a pool whose hand-off deque may hold work when the
// cap trips: the states on it, like those on every worker's stack, are
// interned and marked enqueued, so the checkpoint covers them and resuming
// at one worker and at four reproduces the uninterrupted counts.
TEST(ParallelExplore, StateCapDuringHandoffCheckpointsAndResumes) {
  const auto program = parser::parse_program(kHandoffProgram);
  const auto full = explore::explore(program.sys, ExploreOptions{});
  ASSERT_EQ(full.stop, engine::StopReason::Complete);
  const std::string path =
      ::testing::TempDir() + "parallel_explore_handoff_ckpt.json";
  for (const unsigned writer : {4U, 8U}) {
    for (const std::uint64_t cap :
         {full.stats.states / 4, full.stats.states / 2,
          3 * full.stats.states / 4}) {
      SCOPED_TRACE("writer=" + std::to_string(writer) +
                   " cap=" + std::to_string(cap));
      ExploreOptions trunc;
      trunc.num_threads = writer;
      trunc.max_states = cap;
      trunc.checkpoint_path = path;
      const auto truncated = explore::explore(program.sys, trunc);
      ASSERT_EQ(truncated.stop, engine::StopReason::StateCap);
      const auto ckpt = engine::load_checkpoint(path);
      for (const unsigned reader : {1U, 4U}) {
        SCOPED_TRACE("reader=" + std::to_string(reader));
        ExploreOptions resume;
        resume.num_threads = reader;
        resume.resume = &ckpt;
        const auto resumed = explore::explore(program.sys, resume);
        EXPECT_EQ(resumed.stop, engine::StopReason::Complete);
        EXPECT_EQ(resumed.stats.states, full.stats.states);
        EXPECT_EQ(resumed.stats.transitions, full.stats.transitions);
        EXPECT_EQ(resumed.stats.finals, full.stats.finals);
        EXPECT_EQ(resumed.stats.blocked, full.stats.blocked);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
