// tools/cli_common.hpp
//
// Flag parsing, exit-code conventions and output helpers shared by the three
// command-line binaries (rc11-run, rc11-verify, rc11-refine).  Every flag
// that means the same thing in more than one tool — --max-states, --threads,
// --por, --stats, --json, --witness, --replay — is parsed here exactly once,
// so the tools cannot drift apart in spelling, value handling or exit codes.

#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>

#include "engine/checkpoint.hpp"
#include "engine/run.hpp"
#include "engine/supervise.hpp"
#include "lang/system.hpp"
#include "witness/json.hpp"
#include "witness/witness.hpp"

namespace rc11::cli {

// Exit-code conventions, uniform across the three tools:
//   0 success (outcomes printed / outline valid / refinement holds)
//   1 usage or parse errors
//   2 definite negative verdict (invariant violation, outline invalid,
//     refinement fails, witness replay diverged)
//   3 inconclusive (a state or product bound was hit; verdicts unreliable)
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitFail = 2;
inline constexpr int kExitInconclusive = 3;

/// Whole-string numeric parse; rejects "abc", "8x", "" instead of aborting.
template <typename T>
[[nodiscard]] bool parse_num(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// The flags every tool accepts: the engine's run settings
/// (engine::RunOptions — --max-states, --threads, --workers, --por,
/// --symmetry, --rf-quotient, --strategy, --seed, --mem-budget,
/// --deadline-ms, --checkpoint) plus the flags only the CLI layer reads.
/// A tool hands the run settings to its checker with one assignment to the
/// checker options' RunOptions base.
struct CommonOptions : engine::RunOptions {
  bool seed_set = false;  ///< --seed was given (only meaningful with sample)
  /// How many --strategy flags were given; a second one is rejected rather
  /// than letting the later flag silently override or combine with the
  /// first (`--strategy por` sets the same `por` as --por).
  unsigned strategy_flags = 0;
  bool stats = false;        ///< print exploration statistics
  std::string witness_path;  ///< write first counterexample as JSON witness
  std::string replay_path;   ///< re-execute a JSON witness instead of checking
  std::string json_path;     ///< write a machine-readable run summary
  std::string resume_path;   ///< --resume FILE: continue a saved run
};

/// Usage-line fragment for the shared flags (tools append their own).
inline constexpr const char* kCommonUsage =
    "[--max-states N] [--threads N] [--workers N] [--por] [--symmetry] "
    "[--rf-quotient] [--strategy exhaustive|por|sample[:N]] [--seed S] "
    "[--stats] [--json FILE] [--witness FILE] [--replay FILE] "
    "[--deadline-ms MS] [--mem-budget BYTES[K|M|G]] [--checkpoint FILE] "
    "[--resume FILE]";

/// Byte-count parse for --mem-budget: a whole number with an optional
/// binary-unit suffix (K, M or G, case-insensitive).  Rejects overflow.
[[nodiscard]] bool parse_bytes(const std::string& s, std::uint64_t& out);

enum class FlagStatus : std::uint8_t {
  Consumed,  ///< argv[i] (plus its value, if any) was a common flag
  NotMine,   ///< not a common flag; the tool should try its own
  Error,     ///< common flag with a missing or malformed value
};

/// Tries to consume argv[i] as a common flag, advancing `i` over the flag's
/// value when it takes one.
[[nodiscard]] FlagStatus parse_common_flag(int argc, char** argv, int& i,
                                           CommonOptions& out);

/// Post-parse conflict checking, before the program is parsed: rejects a
/// repeated --strategy, the combinations engine::unsupported_combination
/// names (mutually exclusive reductions, and a reduction, --checkpoint or
/// --resume under sampling) and --seed without sampling.  Returns an error
/// message for the user, or an empty string when the options are
/// consistent.
[[nodiscard]] std::string resolve_strategy(const CommonOptions& opts);

/// Fills the run settings no flag carries: loads the --resume checkpoint
/// into `resume` and points `opts.resume` at it, installs the SIGINT/SIGTERM
/// cancellation token and reads RC11_FAULT.  Throws support::Error on an
/// unreadable checkpoint.
void arm_run(CommonOptions& opts, std::optional<engine::Checkpoint>& resume);

/// Narrates the checkpoint a run resumed from (nothing without --resume).
/// The tools call it once the checker has returned, so a checker that
/// rejects the combination never claims to have resumed.
void narrate_resume(const CommonOptions& opts);

/// Adds the run's coverage strategy ("exhaustive", "por" or "sample") and,
/// when sampling, its seed to a --json summary.
void set_strategy_json(witness::Json& summary, const CommonOptions& opts);

/// Installs SIGINT/SIGTERM handlers that trip a process-wide
/// engine::CancelToken and returns that token, so a Ctrl-C drains the
/// exploration workers and the tool still emits its partial report (and a
/// --checkpoint file) before exiting with kExitInconclusive.  The handler
/// re-arms the default disposition, so a *second* signal kills the process
/// the traditional way.  Async-signal-safe: the handler only performs a
/// relaxed atomic store and a sigaction reset.
[[nodiscard]] const engine::CancelToken* install_signal_cancel();

/// The shared --replay implementation: load the witness at
/// `opts.replay_path`, re-execute it against `sys`, narrate the outcome.
/// Returns kExitOk when every step replays, kExitFail otherwise.
[[nodiscard]] int run_replay(const lang::System& sys,
                             const CommonOptions& opts);

/// The shared --stats block: peak frontier, visited-set memory, — under
/// --por — how much the reduction saved (reduced expansions and states
/// skipped by chain collapse), — under --symmetry — orbit-duplicate
/// arrivals merged, sleep-set step skips and the quotient ratio, — under
/// --rf-quotient — concrete arrivals merged into visited classes (counted
/// only when traces are recorded; 0 otherwise) and sleep-set skips, and —
/// under sampling — episodes, episode rate (when `wall_s` > 0; the tools
/// time the run) and the distinct-state coverage estimate.  Rates and
/// ratios go only to this human-readable block, never into --json: CI
/// byte-compares JSON reports for seed determinism.
void print_stats(const engine::ExploreStats& stats, bool por, bool symmetry,
                 bool rf_quotient, double wall_s = -1.0);

/// The --stats lines of a supervised (--workers) run: restarts, retried
/// batches, corrupt frames, orphaned states.  Human block only — telemetry
/// never enters --json, so a recovered run's report stays byte-identical to
/// an undisturbed one's.
void print_dist_stats(const engine::DistTelemetry& dist);

/// ExploreStats as a JSON object (states, transitions, finals, blocked, the
/// POR, symmetry/sleep and rf-merge counters when non-zero, and `episodes`
/// when sampling) for --json summaries.  Deliberately free of timing data —
/// same seed must produce a byte-identical report.  That holds for a
/// single-thread run; with --threads N > 1 an exhaustive run's
/// peak_frontier and visited_bytes vary run to run, and so do por_chained
/// and sleep_set_skips under --symmetry or --rf-quotient (sleep sets),
/// while states, transitions, finals and blocked do not.
[[nodiscard]] witness::Json stats_json(const engine::ExploreStats& stats);

/// Writes a --json summary document and narrates where it went.
void write_json_summary(const witness::Json& summary, const std::string& path);

/// The shared --witness emission: minimize `w` against `sys`, save it to
/// `path` and narrate the step count.
void write_witness(const lang::System& sys, const witness::Witness& w,
                   const std::string& path);

}  // namespace rc11::cli
