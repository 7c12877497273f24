#include "engine/run.hpp"

#include <utility>

#include "engine/checkpoint.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"

namespace rc11::engine {

bool parse_strategy(std::string_view text, RunOptions& out) {
  if (text == "exhaustive") {
    out.mode = Strategy::Exhaustive;
    return true;
  }
  if (text == "por") {
    out.mode = Strategy::Exhaustive;
    out.por = true;
    return true;
  }
  if (text == "sample") {
    out.mode = Strategy::Sample;
    out.sample.episodes = SampleOptions{}.episodes;
    return true;
  }
  constexpr std::string_view kPrefix = "sample:";
  if (text.substr(0, kPrefix.size()) != kPrefix) return false;
  const std::string_view digits = text.substr(kPrefix.size());
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - 9) / 10) return false;  // overflow
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value == 0) return false;
  out.mode = Strategy::Sample;
  out.sample.episodes = value;
  return true;
}

const char* strategy_name(const RunOptions& options) noexcept {
  if (options.mode == Strategy::Sample) return "sample";
  return options.por ? "por" : "exhaustive";
}

CheckerRun::CheckerRun(const System& sys, const RunOptions& options)
    : ts_(sys),
      options_(options),
      traced_(options.track_traces || !options.checkpoint_path.empty()) {
  if (options.workers > 0) {
    support::require(!options.symmetry,
                     "--workers cannot be combined with --symmetry");
    support::require(options.mode != Strategy::Sample,
                     "--workers cannot be combined with --strategy sample");
    support::require(
        options.num_threads <= 1,
        "--workers runs worker processes; combine with --threads 1");
    support::require(options.resume == nullptr,
                     "--workers cannot resume a checkpoint; resume runs "
                     "single-process (the checkpoint it writes is compatible)");
  }
  // Reject before any exploration work happens (sample_reach rejects a
  // resume the same way).
  if (options.mode == Strategy::Sample) {
    support::require(options.checkpoint_path.empty(),
                     "--checkpoint is not supported under --strategy sample: "
                     "a sampling run has no frontier to save");
  }
  // The supervisor interns every state into a sink whether or not traces
  // are wanted; in-process runs pay for one only when they record.
  if (traced_ || options.workers > 0) sink_.emplace();
  if (traced_) initial_digest_ = witness::config_digest(ts_.initial());
}

RecordedRun CheckerRun::recorded_run(std::uint64_t id, std::string_view kind,
                                     std::string_view source,
                                     std::string_view what,
                                     std::string_view state_dump) const {
  RecordedRun run;
  if (!traced_) return run;
  const ShardedVisitedSet& sink = *sink_;
  const auto edges = sink.path_to(id);
  run.trace.reserve(edges.size() + 2);
  run.trace.emplace_back("init");
  witness::Witness& w = run.witness.emplace();
  w.kind = kind;
  w.source = source;
  w.what = what;
  w.state_dump = state_dump;
  w.initial_digest = initial_digest_;
  w.steps.reserve(edges.size() + 1);
  std::vector<std::uint64_t> enc;
  for (const auto& e : edges) {
    run.trace.push_back(e.label);
    enc.clear();
    sink.decode_state(e.state, enc);
    w.steps.push_back({e.thread, e.label, support::hash_words(enc)});
  }
  return run;
}

DistResult CheckerRun::run(const StateVisitor& visitor, DistDelegate& delegate,
                           const DriverExtras& extras) {
  const Budget budget{options_.max_states, options_.max_visited_bytes,
                      options_.deadline_ms};
  DistResult result;
  if (options_.workers > 0) {
    DistOptions dopts;
    dopts.workers = options_.workers;
    dopts.budget = budget;
    dopts.por = options_.por;
    dopts.fuse_local_steps = extras.fuse_local_steps;
    dopts.rf_quotient = options_.rf_quotient;
    dopts.rf_pins = extras.rf_pins;
    dopts.cancel = options_.cancel;
    dopts.fault = options_.fault;
    result = supervise_reach(ts_, dopts, delegate, *sink_);
  } else {
    ReachOptions ropts;
    ropts.budget = budget;
    ropts.num_threads = options_.num_threads;
    ropts.strategy = extras.strategy;
    ropts.mode = options_.mode;
    ropts.sample = options_.sample;
    ropts.fuse_local_steps = extras.fuse_local_steps;
    ropts.por = options_.por;
    ropts.symmetry = options_.symmetry;
    ropts.rf_quotient = options_.rf_quotient;
    ropts.rf_pins = extras.rf_pins;
    // Both quotients pay the masked visited set already; sleep-set pruning
    // rides along for free on that path.
    ropts.sleep_sets = options_.symmetry || options_.rf_quotient;
    ropts.want_labels = extras.want_labels;
    ropts.trace = sink_ ? &*sink_ : nullptr;
    ropts.cancel = options_.cancel;
    ropts.fault = options_.fault;
    ropts.resume = options_.resume;
    const ReachResult reach = visit_reachable(ts_, ropts, visitor);
    result.stats = reach.stats;
    result.stop = reach.stop;
  }
  if (!options_.checkpoint_path.empty() && result.truncated()) {
    save_checkpoint(make_checkpoint(*sink_, result.stats, result.stop,
                                    options_.por, options_.symmetry,
                                    options_.rf_quotient),
                    options_.checkpoint_path);
  }
  return result;
}

}  // namespace rc11::engine
