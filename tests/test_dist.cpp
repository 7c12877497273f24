// Supervised multi-process exploration (engine/supervise.hpp): verdicts,
// stats and outcome sets must be byte-identical for every worker count, a
// crashed/hung/corrupted worker must be recovered without changing any
// result, retry exhaustion must degrade to an honest partial report
// (StopReason::WorkerLost) instead of a wrong verdict or a hang, and the
// flag combinations the supervisor cannot honour must be rejected loudly.
// The frame codec underneath is pinned too: its slicing-by-8 CRC against
// the byte-table one, and in-place payload hand-out over any chunking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "engine/budget.hpp"
#include "engine/checkpoint.hpp"
#include "engine/wire.hpp"
#include "explore/explorer.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "support/diagnostics.hpp"
#include "witness/witness.hpp"

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

/// Scoped environment override for the RC11_DIST_* tuning knobs.
struct EnvVar {
  std::string name;
  bool had;
  std::string old;
  EnvVar(const char* n, const char* v) : name(n) {
    const char* o = std::getenv(n);
    had = o != nullptr;
    if (had) old = o;
    ::setenv(n, v, 1);
  }
  ~EnvVar() {
    if (had) {
      ::setenv(name.c_str(), old.c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
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

/// The fields the --workers contract promises are byte-identical across
/// worker counts *and* across disturbed/undisturbed runs (DistTelemetry is
/// deliberately outside this set).
void expect_identical(const explore::ExploreResult& a,
                      const explore::ExploreResult& b, const lang::System& sys,
                      const std::string& what) {
  EXPECT_EQ(a.stats.states, b.stats.states) << what;
  EXPECT_EQ(a.stats.transitions, b.stats.transitions) << what;
  EXPECT_EQ(a.stats.finals, b.stats.finals) << what;
  EXPECT_EQ(a.stats.blocked, b.stats.blocked) << what;
  EXPECT_EQ(a.stats.peak_frontier, b.stats.peak_frontier) << what;
  EXPECT_EQ(a.stats.visited_bytes, b.stats.visited_bytes) << what;
  EXPECT_EQ(a.stats.por_reduced, b.stats.por_reduced) << what;
  EXPECT_EQ(a.stats.por_chained, b.stats.por_chained) << what;
  EXPECT_EQ(a.stats.rf_merges, b.stats.rf_merges) << what;
  EXPECT_EQ(a.stop, b.stop) << what;
  EXPECT_EQ(a.violations.size(), b.violations.size()) << what;
  const auto regs = all_regs(sys);
  EXPECT_EQ(explore::final_register_values(sys, a, regs),
            explore::final_register_values(sys, b, regs))
      << what;
}

// --- Flag-combination rejections ---------------------------------------------

TEST(Dist, RejectsUnsupportedCombinations) {
  const auto program = parser::parse_file(prog("sb.rc11"));

  ExploreOptions sym;
  sym.workers = 2;
  sym.symmetry = true;
  EXPECT_THROW((void)explore::explore(program.sys, sym), support::Error);

  ExploreOptions sample;
  sample.workers = 2;
  sample.mode = engine::Strategy::Sample;
  EXPECT_THROW((void)explore::explore(program.sys, sample), support::Error);

  ExploreOptions threads;
  threads.workers = 2;
  threads.num_threads = 4;
  EXPECT_THROW((void)explore::explore(program.sys, threads), support::Error);

  const engine::Checkpoint cp;
  ExploreOptions resume;
  resume.workers = 2;
  resume.resume = &cp;
  EXPECT_THROW((void)explore::explore(program.sys, resume), support::Error);

  race::RaceOptions ropts;
  ropts.workers = 2;
  ropts.symmetry = true;
  EXPECT_THROW((void)race::check(program.sys, ropts), support::Error);

  const auto outlined = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(outlined.outline.has_value());
  og::OutlineCheckOptions oopts;
  oopts.workers = 2;
  oopts.num_threads = 3;
  EXPECT_THROW(
      (void)og::check_outline(outlined.sys, *outlined.outline, oopts),
      support::Error);
}

// --- Worker-count independence -----------------------------------------------

TEST(Dist, ResultsIdenticalAcrossWorkerCounts) {
  for (const char* name :
       {"sb.rc11", "ticket_lock.rc11", "mp_stack.rc11", "dcl_init.rc11",
        "disjoint_na.rc11", "mp_verified.rc11"}) {
    const auto program = parser::parse_file(prog(name));
    ExploreOptions opts;
    opts.workers = 1;
    const auto one = explore::explore(program.sys, opts);
    EXPECT_EQ(one.stop, StopReason::Complete) << name;
    for (const unsigned n : {2u, 4u}) {
      opts.workers = n;
      const auto many = explore::explore(program.sys, opts);
      expect_identical(one, many, program.sys,
                       std::string(name) + " workers=" + std::to_string(n));
      EXPECT_EQ(many.dist.worker_restarts, 0u) << name;
    }
  }
}

TEST(Dist, MatchesSequentialVerdicts) {
  // Against the in-process driver only the verdict-bearing fields are
  // comparable (peak_frontier is frontier-definition dependent and
  // visited_bytes sink-dependent).
  for (const char* name :
       {"sb.rc11", "ticket_lock.rc11", "mp_stack.rc11", "dcl_broken.rc11"}) {
    const auto program = parser::parse_file(prog(name));
    const auto seq = explore::explore(program.sys, ExploreOptions{});
    ExploreOptions opts;
    opts.workers = 3;
    const auto dist = explore::explore(program.sys, opts);
    EXPECT_EQ(seq.stats.states, dist.stats.states) << name;
    EXPECT_EQ(seq.stats.transitions, dist.stats.transitions) << name;
    EXPECT_EQ(seq.stats.finals, dist.stats.finals) << name;
    EXPECT_EQ(seq.stats.blocked, dist.stats.blocked) << name;
    EXPECT_EQ(seq.stop, dist.stop) << name;
    const auto regs = all_regs(program.sys);
    EXPECT_EQ(explore::final_register_values(program.sys, seq, regs),
              explore::final_register_values(program.sys, dist, regs))
        << name;
  }
}

// --- Fault-injected recovery -------------------------------------------------

TEST(Dist, CrashRecoveryAtEveryBatchPosition) {
  // batch=1 makes the dispatch index a precise state counter, so the fault
  // matrix can target the first, a middle and the last batch exactly.
  const EnvVar batch("RC11_DIST_BATCH", "1");
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));

  struct Combo {
    bool por;
    bool rf;
  };
  for (const Combo combo : {Combo{false, false}, Combo{true, false},
                            Combo{false, true}}) {
    ExploreOptions base;
    base.workers = 2;
    base.por = combo.por;
    base.rf_quotient = combo.rf;
    const auto undisturbed = explore::explore(program.sys, base);
    ASSERT_EQ(undisturbed.stop, StopReason::Complete);
    const std::uint64_t batches = undisturbed.stats.states;
    for (const std::uint64_t at : {std::uint64_t{1}, batches / 2, batches}) {
      if (at == 0) continue;
      ExploreOptions faulted = base;
      faulted.fault =
          engine::FaultPlan::parse("crash:" + std::to_string(at));
      const auto recovered = explore::explore(program.sys, faulted);
      expect_identical(undisturbed, recovered, program.sys,
                       "crash at batch " + std::to_string(at) + " por=" +
                           std::to_string(combo.por) + " rf=" +
                           std::to_string(combo.rf));
      EXPECT_GE(recovered.dist.worker_restarts, 1u);
      EXPECT_GE(recovered.dist.batches_retried, 1u);
      EXPECT_EQ(recovered.dist.states_orphaned, 0u);
    }
  }
}

TEST(Dist, HangRecovery) {
  const EnvVar hang("RC11_DIST_HANG_MS", "100");
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("dcl_init.rc11"));
  ExploreOptions base;
  base.workers = 2;
  const auto undisturbed = explore::explore(program.sys, base);
  ExploreOptions faulted = base;
  faulted.fault = engine::FaultPlan::parse("hang:1");
  const auto recovered = explore::explore(program.sys, faulted);
  expect_identical(undisturbed, recovered, program.sys, "hang:1");
  EXPECT_GE(recovered.dist.worker_restarts, 1u);
}

TEST(Dist, CorruptFrameQuarantine) {
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  ExploreOptions base;
  base.workers = 2;
  const auto undisturbed = explore::explore(program.sys, base);
  ExploreOptions faulted = base;
  faulted.fault = engine::FaultPlan::parse("corrupt:1");
  const auto recovered = explore::explore(program.sys, faulted);
  expect_identical(undisturbed, recovered, program.sys, "corrupt:1");
  EXPECT_GE(recovered.dist.frames_corrupt, 1u);
  EXPECT_GE(recovered.dist.worker_restarts, 1u);
}

TEST(Dist, MixedFaultsAcrossWorkers) {
  const EnvVar hang("RC11_DIST_HANG_MS", "100");
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  ExploreOptions base;
  base.workers = 3;
  const auto undisturbed = explore::explore(program.sys, base);
  ExploreOptions faulted = base;
  faulted.fault = engine::FaultPlan::parse("crash:1,hang:3,corrupt:5");
  const auto recovered = explore::explore(program.sys, faulted);
  expect_identical(undisturbed, recovered, program.sys, "mixed faults");
  EXPECT_GE(recovered.dist.worker_restarts, 2u);
}

// --- Graceful degradation ----------------------------------------------------

TEST(Dist, RetryExhaustionReportsWorkerLost) {
  const EnvVar retries("RC11_DIST_RETRIES", "1");
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto full = explore::explore(program.sys, ExploreOptions{});

  ExploreOptions opts;
  opts.workers = 2;
  // Every dispatch crashes: the first batch burns its retry budget and the
  // run must degrade to an honest partial report, never a wrong verdict.
  opts.fault = engine::FaultPlan::parse("crash:1:1000000");
  const auto lost = explore::explore(program.sys, opts);
  EXPECT_EQ(lost.stop, StopReason::WorkerLost);
  EXPECT_TRUE(lost.truncated);
  EXPECT_GE(lost.dist.states_orphaned, 1u);
  EXPECT_LT(lost.stats.states, full.stats.states);
  EXPECT_TRUE(lost.violations.empty());
}

TEST(Dist, DeadlineHoldsWhileEveryWorkerIsWedged) {
  const EnvVar hang("RC11_DIST_HANG_MS", "600000");  // never declare a hang
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  ExploreOptions opts;
  opts.workers = 2;
  opts.deadline_ms = 200;
  opts.fault = engine::FaultPlan::parse("hang:1:1000000");
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::Deadline);
  EXPECT_TRUE(result.truncated);
}

// --- Checker integration -----------------------------------------------------

TEST(Dist, OutlineVerdictsSurviveCrashes) {
  const EnvVar batch("RC11_DIST_BATCH", "1");
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");

  const auto good = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(good.outline.has_value());
  og::OutlineCheckOptions gopts;
  gopts.workers = 2;
  gopts.fault = engine::FaultPlan::parse("crash:2");
  const auto valid = og::check_outline(good.sys, *good.outline, gopts);
  EXPECT_TRUE(valid.valid);
  EXPECT_EQ(valid.stop, StopReason::Complete);
  EXPECT_GE(valid.dist.worker_restarts, 1u);

  const auto bad = parser::parse_file(prog("mp_broken_outline.rc11"));
  ASSERT_TRUE(bad.outline.has_value());
  og::OutlineCheckOptions bopts;
  bopts.stop_at_first_failure = false;
  const auto seq = og::check_outline(bad.sys, *bad.outline, bopts);
  bopts.workers = 3;
  bopts.fault = engine::FaultPlan::parse("crash:1");
  const auto dist = og::check_outline(bad.sys, *bad.outline, bopts);
  EXPECT_FALSE(dist.valid);
  EXPECT_EQ(seq.valid, dist.valid);
  EXPECT_EQ(seq.obligations_checked, dist.obligations_checked);
  std::vector<std::string> seq_obls, dist_obls;
  for (const auto& f : seq.failures) seq_obls.push_back(f.obligation);
  for (const auto& f : dist.failures) dist_obls.push_back(f.obligation);
  std::sort(seq_obls.begin(), seq_obls.end());
  std::sort(dist_obls.begin(), dist_obls.end());
  EXPECT_EQ(seq_obls, dist_obls);
}

TEST(Dist, RaceSetsSurviveFaults) {
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  for (const char* name :
       {"mp_na_racy.rc11", "flag_spin_racy.rc11", "disjoint_na.rc11"}) {
    const auto program = parser::parse_file(prog(name));
    const auto seq = race::check(program.sys, race::RaceOptions{});
    race::RaceOptions dopts;
    dopts.workers = 2;
    dopts.fault = engine::FaultPlan::parse("crash:1");
    const auto dist = race::check(program.sys, dopts);
    ASSERT_EQ(seq.races.size(), dist.races.size()) << name;
    for (std::size_t i = 0; i < seq.races.size(); ++i) {
      EXPECT_EQ(seq.races[i].what, dist.races[i].what) << name;
      EXPECT_EQ(seq.races[i].location, dist.races[i].location) << name;
    }
    EXPECT_EQ(seq.stop, dist.stop) << name;
    EXPECT_EQ(seq.stats.states, dist.stats.states) << name;
  }
}

TEST(Dist, RaceWitnessesFromRecoveredRunsReplay) {
  const EnvVar backoff("RC11_DIST_BACKOFF_MS", "1");
  const auto program = parser::parse_file(prog("mp_na_racy.rc11"));
  race::RaceOptions opts;
  opts.workers = 2;
  opts.track_traces = true;
  opts.fault = engine::FaultPlan::parse("crash:1");
  const auto result = race::check(program.sys, opts);
  ASSERT_TRUE(result.racy());
  // Race witnesses digest the race-instrumented encoding.
  lang::System traced = program.sys;
  auto sem = traced.options();
  sem.race_detection = true;
  traced.set_options(sem);
  std::size_t replayed = 0;
  for (const auto& r : result.races) {
    if (!r.witness) continue;
    const auto rep = witness::replay(traced, *r.witness);
    EXPECT_TRUE(rep.ok) << rep.error;
    ++replayed;
  }
  EXPECT_GE(replayed, 1u);
}

// --- Checkpoint compatibility ------------------------------------------------

TEST(Dist, TruncatedSupervisedRunCheckpointsForSequentialResume) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto full = explore::explore(program.sys, ExploreOptions{});
  const auto regs = all_regs(program.sys);

  TempFile ckpt("dist_resume.ckpt");
  ExploreOptions opts;
  opts.workers = 2;
  opts.max_states = 10;
  opts.checkpoint_path = ckpt.path;
  const auto partial = explore::explore(program.sys, opts);
  EXPECT_EQ(partial.stop, StopReason::StateCap);

  const auto cp = engine::load_checkpoint(ckpt.path);
  ExploreOptions resumed;
  resumed.resume = &cp;
  const auto rest = explore::explore(program.sys, resumed);
  EXPECT_EQ(rest.stop, StopReason::Complete);
  EXPECT_EQ(explore::final_register_values(program.sys, rest, regs),
            explore::final_register_values(program.sys, full, regs));
}

// --- Frame codec ---------------------------------------------------------------

/// The byte-at-a-time table CRC the slicing-by-8 one must reproduce.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Dist, Crc32MatchesByteTableAndCheckValue) {
  EXPECT_EQ(engine::wire::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(engine::wire::crc32(""), 0u);
  std::mt19937_64 rng(7);
  std::string bytes;
  for (std::size_t len = 0; len < 300; ++len) {
    bytes.push_back(static_cast<char>(rng()));
    // Every length and every start offset mod 8 goes through both the
    // sliced body and the byte tail.
    for (std::size_t off = 0; off < std::min<std::size_t>(len, 9); ++off) {
      const std::string_view view(bytes.data() + off, len - off);
      ASSERT_EQ(engine::wire::crc32(view), crc32_bytewise(view))
          << "len " << len << " offset " << off;
    }
  }
}

/// Copies `n` bytes into the reader the way the pipe loops do.
void feed(engine::wire::FrameReader& reader, const char* data, std::size_t n) {
  std::memcpy(reader.prepare(n), data, n);
  reader.commit(n);
}

TEST(Dist, FrameReaderHandsOutPayloadsInPlace) {
  std::vector<std::string> payloads;
  std::string stream;
  for (std::size_t i = 0; i < 60; ++i) {
    payloads.push_back(std::string(i * 37 % 5000, static_cast<char>('a' + i % 26)));
    stream += engine::wire::encode_frame(payloads.back());
  }
  for (const std::size_t chunk : {1u, 7u, 12u, 4096u, 100000u}) {
    engine::wire::FrameReader reader;
    std::size_t got = 0;
    std::string_view payload;
    std::string error;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      feed(reader, stream.data() + off, std::min(chunk, stream.size() - off));
      for (;;) {
        const auto status = reader.next(payload, error);
        ASSERT_NE(status, engine::wire::FrameReader::Status::Corrupt) << error;
        if (status == engine::wire::FrameReader::Status::NeedMore) break;
        ASSERT_LT(got, payloads.size());
        EXPECT_EQ(payload, payloads[got]) << "chunk " << chunk;
        got += 1;
      }
    }
    EXPECT_EQ(got, payloads.size()) << "chunk " << chunk;
    EXPECT_EQ(reader.buffered(), 0u);
  }
  // One flipped payload byte (in the last frame) poisons the stream for good.
  std::string bad = stream;
  bad.back() = static_cast<char>(bad.back() ^ 0x5A);
  engine::wire::FrameReader reader;
  feed(reader, bad.data(), bad.size());
  std::string_view payload;
  std::string error;
  std::size_t intact = 0;
  while (reader.next(payload, error) ==
         engine::wire::FrameReader::Status::Frame) {
    intact += 1;
  }
  EXPECT_EQ(intact, payloads.size() - 1);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_NE(error.find("CRC"), std::string::npos);
  feed(reader, stream.data(), stream.size());
  EXPECT_EQ(reader.next(payload, error),
            engine::wire::FrameReader::Status::Corrupt);
}

}  // namespace
