// perfbench/trace.cpp — the in-process half of the rc11lib benchmark.
//
//   rc11-bench-trace setup MANIFEST
//       Times the set-up of every program of the manifest (parse_program,
//       the SystemTransitions constructor and the job's make_*_abstraction
//       factory) and prints {"setup_s": <median seconds per batch>, ...}
//       over kSetupSamples samples of >= 20 ms each.
//
//   rc11-bench-trace trace MANIFEST SPANS
//       The traced run: every job of the manifest is re-run in process, with
//       spans recorded from outside the library — around parse_program, the
//       checker call, visit_reachable, and (through a TransitionSystem
//       decorator and the visitor) every successor and ample-set call.  The
//       spans are written to SPANS when the run ends; the per-layer metrics
//       and each job's verdict data (for run.py's answer checks) go to stdout.
//
// Nothing here changes library behaviour: the decorator forwards every call
// to the real SystemTransitions, and visit_reachable takes the transition
// system by const reference, so the decorated run explores exactly the
// states the CLIs explore.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/checkpoint.hpp"
#include "engine/reach.hpp"
#include "engine/supervise.hpp"
#include "explore/explorer.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "refinement/refinement.hpp"
#include "witness/json.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using witness::Json;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// --- the manifest ------------------------------------------------------------

struct JobSpec {
  std::string id;
  std::string kind;  // run | invariant | witness | checkpoint | verify | race | refine
  std::vector<std::string> files;
  bool por = false;
  bool symmetry = false;
  bool rf_quotient = false;
  unsigned threads = 1;
  unsigned workers = 0;
  std::string invariant;
  std::uint64_t max_states = 0;  // checkpoint jobs: the interrupting cap
};

std::vector<JobSpec> load_manifest(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  std::vector<JobSpec> jobs;
  for (const Json& j : doc.at("jobs").items()) {
    JobSpec s;
    s.id = j.at("id").as_string();
    s.kind = j.at("kind").as_string();
    for (const Json& f : j.at("files").items()) s.files.push_back(f.as_string());
    s.por = j.at("por").as_bool();
    s.symmetry = j.at("symmetry").as_bool();
    s.rf_quotient = j.at("rf_quotient").as_bool();
    s.threads = static_cast<unsigned>(j.at("threads").as_int());
    s.workers = static_cast<unsigned>(j.at("workers").as_int());
    if (j.has("invariant")) s.invariant = j.at("invariant").as_string();
    if (j.has("max_states")) {
      s.max_states = static_cast<std::uint64_t>(j.at("max_states").as_int());
    }
    jobs.push_back(std::move(s));
  }
  return jobs;
}

std::unique_ptr<engine::StateAbstraction> make_abstraction(
    const JobSpec& job, const lang::System& sys) {
  if (job.symmetry) return engine::make_symmetry_abstraction(sys);
  if (job.rf_quotient) return engine::make_rf_quotient_abstraction(sys, {});
  return engine::make_concrete_abstraction();
}

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t job = -1;
  std::int64_t parent = -1;  // index into the span table, -1 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t count = 1;     // > 1 for per-call spans aggregated per job
  std::uint64_t total_ns = 0;  // summed duration (end - start when count 1)
};

class SpanLog {
 public:
  void open(std::string name, std::int64_t job) {
    const auto parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), job, parent, now_ns(), 0, 1, 0});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  }
  std::uint64_t close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end_ns = now_ns();
    s.total_ns = s.end_ns - s.start_ns;
    return s.total_ns;
  }
  /// Records an aggregated child of the open span: `count` calls summing to
  /// `total_ns`, bounded by the parent's interval.
  void aggregate(std::string name, std::int64_t job, std::uint64_t count,
                 std::uint64_t total_ns) {
    const Span& p = spans_[static_cast<std::size_t>(stack_.back())];
    spans_.push_back({std::move(name), job, stack_.back(), p.start_ns,
                      now_ns(), count, total_ns});
  }

  void write(const std::string& path) const {
    // Self time = total minus what the span's direct children cover.
    std::vector<std::uint64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.total_ns;
    }
    std::ofstream out{path};
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::uint64_t self =
          s.total_ns > child[i] ? s.total_ns - child[i] : 0;
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"job\": " << s.job << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"count\": " << s.count << ", \"total_ns\": " << s.total_ns
          << ", \"self_ns\": " << self << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

SpanLog g_spans;

/// RAII span on the global log.
class Scoped {
 public:
  Scoped(std::string name, std::int64_t job) { g_spans.open(std::move(name), job); }
  ~Scoped() { if (!closed_) g_spans.close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t close() { closed_ = true; return g_spans.close(); }

 private:
  bool closed_ = false;
};

// --- per-worker accumulators for the decorator and the visitor ---------------

struct Acc {
  std::uint64_t succ_ns = 0, succ_calls = 0, succ_steps = 0;
  std::uint64_t ample_ns = 0, ample_calls = 0;
  std::uint64_t visit_ns = 0, visit_calls = 0;
};

/// One accumulator per worker thread, so timing adds no shared writes on the
/// hot path.  Slots live in a deque (stable addresses); each run gets a fresh
/// table with a fresh generation, which invalidates the thread-local caches.
class AccTable {
 public:
  AccTable() : gen_(next_gen_.fetch_add(1) + 1) {}
  AccTable(const AccTable&) = delete;
  AccTable& operator=(const AccTable&) = delete;

  Acc& mine() const {
    thread_local std::uint64_t cached_gen = 0;
    thread_local Acc* cached = nullptr;
    if (cached_gen != gen_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.emplace_back();
      cached = &slots_.back();
      cached_gen = gen_;
    }
    return *cached;
  }
  [[nodiscard]] Acc sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    Acc t;
    for (const Acc& a : slots_) {
      t.succ_ns += a.succ_ns; t.succ_calls += a.succ_calls;
      t.succ_steps += a.succ_steps; t.ample_ns += a.ample_ns;
      t.ample_calls += a.ample_calls; t.visit_ns += a.visit_ns;
      t.visit_calls += a.visit_calls;
    }
    return t;
  }

 private:
  static inline std::atomic<std::uint64_t> next_gen_{0};
  const std::uint64_t gen_;
  mutable std::mutex mu_;
  mutable std::deque<Acc> slots_;
};

/// Forwards to the real transition system and times the successor and
/// ample-set calls (the lang + memsem layer and the ample/sleep layer).
class TimedTransitions final : public engine::TransitionSystem {
 public:
  TimedTransitions(const engine::TransitionSystem& inner, const AccTable& acc)
      : inner_(inner), acc_(acc) {}

  [[nodiscard]] const lang::System& system() const override { return inner_.system(); }
  [[nodiscard]] lang::Config initial() const override { return inner_.initial(); }
  void successors_into(const lang::Config& cfg, lang::StepBuffer& out,
                       bool want_labels) const override {
    const auto t0 = now_ns();
    inner_.successors_into(cfg, out, want_labels);
    Acc& a = acc_.mine();
    a.succ_ns += now_ns() - t0;
    a.succ_calls += 1;
    a.succ_steps += out.size();
  }
  void thread_successors_into(const lang::Config& cfg, lang::ThreadId t,
                              lang::StepBuffer& out,
                              bool want_labels) const override {
    const auto t0 = now_ns();
    inner_.thread_successors_into(cfg, t, out, want_labels);
    Acc& a = acc_.mine();
    a.succ_ns += now_ns() - t0;
    a.succ_calls += 1;
    a.succ_steps += out.size();
  }
  [[nodiscard]] std::optional<lang::ThreadId> ample_thread(
      const lang::Config& cfg) const override {
    const auto t0 = now_ns();
    auto r = inner_.ample_thread(cfg);
    Acc& a = acc_.mine();
    a.ample_ns += now_ns() - t0;
    a.ample_calls += 1;
    return r;
  }
  [[nodiscard]] std::optional<lang::ThreadId> fusible_thread(
      const lang::Config& cfg) const override {
    return inner_.fusible_thread(cfg);
  }
  [[nodiscard]] bool collapse_chains() const override { return inner_.collapse_chains(); }

 private:
  const engine::TransitionSystem& inner_;
  const AccTable& acc_;
};

/// A supervised run needs a checker delegate; the benchmark's is a no-op, so
/// supervise_reach is compared with a bare sequential visit_reachable.
class NullDelegate final : public engine::DistDelegate {
 public:
  bool evaluate(const lang::Config&, std::span<const lang::Step>,
                std::vector<Json>&) override { return true; }
  bool absorb(const Json&, std::uint64_t, const engine::ShardedVisitedSet&) override {
    return true;
  }
};

// --- metric accumulation -----------------------------------------------------

struct Totals {
  double parse_s = 0;
  std::uint64_t succ_ns = 0, succ_calls = 0, succ_steps = 0;
  std::uint64_t ample_ns = 0, visit_ns = 0;
  std::uint64_t reach_ns = 0, bare_ns = 0;  // single-threaded decorated / bare
  std::uint64_t reach_states = 0, reach_transitions = 0, peak_frontier = 0;
  std::uint64_t visited_bytes = 0;
  // per-state passes over sampled states
  std::uint64_t enc_ns = 0, enc_words = 0, enc_n = 0;
  std::uint64_t key_ns = 0, key_words = 0, key_n = 0;
  std::uint64_t ins_ns = 0, ins_n = 0, inst_ns = 0, inst_n = 0;
  double explained_ns = 0;  // estimated encode/key/intern share of reach
  // reductions
  std::uint64_t reduced_states = 0, unreduced_states = 0;
  std::uint64_t sleep_skips = 0, symmetry_hits = 0, por_chained = 0;
  // parallel
  double par_wall1 = 0, par_wallN = 0, par_busy_ns = 0, par_capacity_s = 0;
  double par_cpu = 0, par_cpu_wall = 0;
  // supervised
  double sup_wall = 0, sup_seq_wall = 0, sup_worker_cpu = 0, sup_self_cpu = 0;
  // checkpoint
  double ckpt_save = 0, ckpt_restore = 0;
  std::uint64_t ckpt_bytes = 0, ckpt_states = 0;
  // checker overheads
  double inv_overhead = 0, og_overhead = 0, race_overhead = 0;
  std::uint64_t race_words = 0, race_n = 0, plain_words = 0, plain_n = 0;
  double graph_s = 0, sim_s = 0, incl_s = 0;
  // witness
  double min_s = 0, replay_s = 0;
  std::uint64_t steps_before = 0, steps_after = 0, json_bytes = 0;
};

Totals g;

engine::ReachOptions reach_options(const JobSpec& job, unsigned threads) {
  engine::ReachOptions o;
  o.num_threads = threads;
  o.por = job.por;
  o.symmetry = job.symmetry;
  o.rf_quotient = job.rf_quotient;
  o.sleep_sets = job.symmetry || job.rf_quotient;
  return o;
}

/// Bare visit_reachable with a do-nothing visitor: the checker-free
/// reference every checker overhead is measured against.
engine::ReachResult bare_reach(const engine::TransitionSystem& ts,
                               const engine::ReachOptions& o, double& wall_s) {
  const auto t0 = now_ns();
  auto r = engine::visit_reachable(ts, o, [](const lang::Config&, std::uint64_t,
                                             std::span<const lang::Step>) {
    return true;
  });
  wall_s = secs(now_ns() - t0);
  return r;
}

constexpr std::size_t kMaxSamples = 20000;

/// The decorated run: times successors / ample / visitor and keeps a sample
/// of the visited states for the per-state passes.
struct DecoratedRun {
  engine::ReachResult result;
  std::uint64_t wall_ns = 0;
  Acc acc;
  std::vector<lang::Config> samples;
};

DecoratedRun decorated_reach(const engine::TransitionSystem& inner,
                             const engine::ReachOptions& o,
                             std::uint64_t expected_states, std::int64_t job) {
  AccTable table;
  TimedTransitions ts{inner, table};
  const std::uint64_t stride = std::max<std::uint64_t>(1, expected_states / kMaxSamples);
  std::atomic<std::uint64_t> seen{0};
  std::mutex mu;
  DecoratedRun run;
  Scoped span{"engine.visit_reachable", job};
  const auto t0 = now_ns();
  run.result = engine::visit_reachable(
      ts, o, [&](const lang::Config& cfg, std::uint64_t, std::span<const lang::Step>) {
        const auto v0 = now_ns();
        if (seen.fetch_add(1, std::memory_order_relaxed) % stride == 0) {
          std::lock_guard<std::mutex> lock(mu);
          if (run.samples.size() < kMaxSamples) run.samples.push_back(cfg);
        }
        Acc& a = table.mine();
        a.visit_ns += now_ns() - v0;
        a.visit_calls += 1;
        return true;
      });
  run.wall_ns = now_ns() - t0;
  run.acc = table.sum();
  g_spans.aggregate("lang.successors", job, run.acc.succ_calls, run.acc.succ_ns);
  g_spans.aggregate("engine.ample", job, run.acc.ample_calls, run.acc.ample_ns);
  g_spans.aggregate("visitor", job, run.acc.visit_calls, run.acc.visit_ns);
  return run;
}

/// Per-state passes over the sampled states: encode, abstraction key, and
/// interning (plain and traced) into fresh visited sets.
/// Returns the time, in ns, these per-state costs predict for the
/// reachability driver's own encode/key/lookup/insert work in the decorated
/// run.
double per_state_passes(const JobSpec& job, const lang::System& sys,
                        const std::vector<lang::Config>& samples,
                        const engine::ExploreStats& stats, std::int64_t jid) {
  if (samples.empty()) return 0;
  Scoped span{"per_state_pass", jid};
  const auto n = static_cast<std::uint64_t>(samples.size());
  // Encode into one reused scratch buffer, as the driver does.
  std::vector<std::uint64_t> buf;
  std::uint64_t words = 0;
  auto t0 = now_ns();
  for (const auto& c : samples) {
    buf.clear();
    c.encode_into(buf);
    words += buf.size();
  }
  const std::uint64_t enc_ns = now_ns() - t0;
  g.enc_ns += enc_ns; g.enc_words += words; g.enc_n += n;
  std::vector<std::vector<std::uint64_t>> encs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i].encode_into(encs[i]);

  const auto abstraction = make_abstraction(job, sys);
  engine::AbstractKey key;
  std::uint64_t kwords = 0;
  t0 = now_ns();
  for (const auto& c : samples) {
    abstraction->key(c, key);
    kwords += key.encoding.size();
  }
  const std::uint64_t key_ns = now_ns() - t0;
  g.key_ns += key_ns; g.key_words += kwords; g.key_n += n;

  engine::ShardedVisitedSet plain;
  t0 = now_ns();
  for (const auto& e : encs) plain.insert(e);
  const std::uint64_t ins_ns = now_ns() - t0;
  g.ins_ns += ins_ns; g.ins_n += n;
  // Most of the driver's lookups hit a state it has already seen.
  t0 = now_ns();
  for (const auto& e : encs) plain.insert(e);
  const std::uint64_t dup_ns = now_ns() - t0;

  engine::ShardedVisitedSet traced;
  std::uint64_t parent = engine::ShardedVisitedSet::kNoState;
  t0 = now_ns();
  for (const auto& e : encs) {
    const auto r = traced.insert_traced(e, parent, 0, std::string{"step"});
    if (r.inserted) parent = r.id;
  }
  g.inst_ns += now_ns() - t0; g.inst_n += n;

  // The driver encodes (under a quotient: keys) and looks up every
  // generated successor; a new one is inserted (and moved onto the
  // frontier), the rest hit the visited set.
  const double per = 1.0 / static_cast<double>(n);
  const double succ_ns = static_cast<double>(abstraction->nontrivial() ? key_ns : enc_ns);
  const double fresh = static_cast<double>(stats.states);
  const double dups = static_cast<double>(stats.transitions) > fresh
                          ? static_cast<double>(stats.transitions) - fresh
                          : 0.0;
  return per * (succ_ns * static_cast<double>(stats.transitions) +
                static_cast<double>(ins_ns) * fresh +
                static_cast<double>(dup_ns) * dups);
}

/// The outcome set as rc11-run prints it: one row per final register
/// tuple, registers in thread then declaration order, as [name, value].
Json outcomes_json(const lang::System& sys, const explore::ExploreResult& r) {
  std::vector<lang::Reg> regs;
  std::vector<std::string> names;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId k = 0; k < sys.num_regs(t); ++k) {
      regs.push_back(lang::Reg{t, k});
      names.push_back(sys.reg_name(t, k));
    }
  }
  auto arr = Json::array();
  for (const auto& tuple : explore::final_register_values(sys, r, regs)) {
    auto row = Json::array();
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      auto pair = Json::array();
      pair.push(Json::string(names[i]));
      pair.push(Json::integer(tuple[i]));
      row.push(std::move(pair));
    }
    arr.push(std::move(row));
  }
  return arr;
}

explore::ExploreOptions explore_options(const JobSpec& job) {
  explore::ExploreOptions o;
  o.num_threads = job.threads;
  o.por = job.por;
  o.symmetry = job.symmetry;
  o.rf_quotient = job.rf_quotient;
  return o;
}

explore::Invariant make_invariant(const parser::ParsedProgram& p,
                                  const std::string& src) {
  const auto assertion = parser::parse_assertion(p, src);
  return [assertion](const lang::System& s,
                     const lang::Config& c) -> std::optional<std::string> {
    if (assertion.eval(s, c)) return std::nullopt;
    return std::string{"invariant violated"};
  };
}

/// The job's checker call, mirroring what its CLI does.  Fills the verdict
/// fields of `res` and returns the checker's wall time (0 when it does not
/// explore the same space as the bare reference run).
double run_checker(const JobSpec& job, const parser::ParsedProgram& p,
                   const parser::ParsedProgram* conc,
                   const engine::TransitionSystem& ts, Json& res,
                   std::int64_t jid) {
  Scoped span{"checker." + job.kind, jid};
  const auto t0 = now_ns();
  const auto wall = [&] { return secs(now_ns() - t0); };
  if (job.kind == "run" || job.kind == "invariant") {
    auto o = explore_options(job);
    const auto r = job.invariant.empty()
                       ? explore::explore(p.sys, o)
                       : explore::explore(p.sys, o, make_invariant(p, job.invariant));
    const double w = wall();
    res.set("outcomes", outcomes_json(p.sys, r));
    res.set("violation", Json::boolean(!r.violations.empty()));
    res.set("stop", Json::string(engine::to_string(r.stop)));
    return job.kind == "invariant" ? w : 0;
  }
  if (job.kind == "witness") {
    auto o = explore_options(job);
    o.track_traces = true;
    const auto r = explore::explore(p.sys, o, make_invariant(p, job.invariant));
    span.close();
    res.set("violation", Json::boolean(!r.violations.empty()));
    bool replay_ok = false;
    if (!r.violations.empty() && r.violations.front().witness) {
      const auto& w = *r.violations.front().witness;
      Scoped ws{"witness", jid};
      auto m0 = now_ns();
      const auto min = witness::minimize(p.sys, w);
      g.min_s += secs(now_ns() - m0);
      m0 = now_ns();
      const auto rep = witness::replay(p.sys, min);
      g.replay_s += secs(now_ns() - m0);
      replay_ok = rep.ok;
      g.steps_before += w.steps.size();
      g.steps_after += min.steps.size();
      g.json_bytes += witness::to_json(min).size();
    }
    res.set("replay_ok", Json::boolean(replay_ok));
    return 0;
  }
  if (job.kind == "checkpoint") {
    // Interrupt at the state cap with a trace sink, save, restore, resume.
    auto o = reach_options(job, 1);
    o.budget.max_states = job.max_states;
    engine::ShardedVisitedSet sink;
    o.trace = &sink;
    const auto partial = engine::visit_reachable(
        ts, o, [](const lang::Config&, std::uint64_t, std::span<const lang::Step>) {
          return true;
        });
    auto c0 = now_ns();
    const auto ck = engine::make_checkpoint(sink, partial.stats, partial.stop,
                                            job.por, job.symmetry, job.rf_quotient);
    const std::string text = engine::to_json(ck);
    g.ckpt_save += secs(now_ns() - c0);
    g.ckpt_bytes += text.size();
    g.ckpt_states += ck.states.size();
    c0 = now_ns();
    const auto back = engine::from_json(text);
    const auto restored = engine::restore_states(ts, back);
    g.ckpt_restore += secs(now_ns() - c0);
    auto eo = explore_options(job);
    eo.resume = &back;
    const auto r = explore::explore(p.sys, eo);
    res.set("interrupted", Json::boolean(partial.stop == engine::StopReason::StateCap &&
                                         restored.size() == ck.states.size()));
    res.set("outcomes", outcomes_json(p.sys, r));
    res.set("stop", Json::string(engine::to_string(r.stop)));
    return 0;
  }
  if (job.kind == "verify") {
    og::OutlineCheckOptions o;
    o.num_threads = job.threads;
    o.por = job.por;
    const auto r = og::check_outline(p.sys, *p.outline, o);
    const double w = wall();
    res.set("valid", Json::boolean(r.valid));
    return r.valid ? w : 0;  // an INVALID check stops at its first failure
  }
  if (job.kind == "race") {
    race::RaceOptions o;
    o.num_threads = job.threads;
    o.por = job.por;
    o.symmetry = job.symmetry;
    o.rf_quotient = job.rf_quotient;
    const auto r = race::check(p.sys, o);
    const double w = wall();
    auto arr = Json::array();
    for (const auto& rr : r.races) {
      auto o2 = Json::object();
      o2.set("location", Json::string(rr.location));
      for (const auto& [k, side] : {std::pair{"a", rr.record.prior},
                                    std::pair{"b", rr.record.current}}) {
        auto s = Json::array();
        s.push(Json::integer(side.thread));
        s.push(Json::string(race::access_name(side.cat)));
        o2.set(k, std::move(s));
      }
      arr.push(std::move(o2));
    }
    res.set("races", std::move(arr));
    return w;
  }
  if (job.kind == "refine") {
    span.close();
    Scoped gs{"refinement.build_graph", jid};
    auto r0 = now_ns();
    refinement::GraphOptions go;
    go.num_threads = job.threads;
    go.por = job.por;
    (void)refinement::build_graph(p.sys, go);
    (void)refinement::build_graph(conc->sys, go);
    g.graph_s += secs(now_ns() - r0);
    gs.close();
    Scoped ss{"refinement.simulation", jid};
    r0 = now_ns();
    refinement::SimulationOptions so;
    so.num_threads = job.threads;
    so.por = job.por;
    const auto sim = refinement::check_forward_simulation(p.sys, conc->sys, so);
    g.sim_s += secs(now_ns() - r0);
    ss.close();
    Scoped is{"refinement.trace_inclusion", jid};
    r0 = now_ns();
    refinement::TraceInclusionOptions to;
    to.num_threads = job.threads;
    to.por = job.por;
    const auto tr = refinement::check_trace_inclusion(p.sys, conc->sys, to);
    g.incl_s += secs(now_ns() - r0);
    res.set("refines", Json::boolean(sim.holds && tr.holds));
    return 0;
  }
  throw std::runtime_error("unknown job kind " + job.kind);
}

void trace_job(const JobSpec& job, std::int64_t jid, Json& jobs_out) {
  Scoped job_span{"job", jid};
  auto res = Json::object();
  res.set("id", Json::string(job.id));

  // Setup: parse (timed on its own), transition system, abstraction.  The
  // system is the one the job's space lives in: race detection instruments
  // the memory state, and refinement explores the concrete side.
  std::optional<parser::ParsedProgram> prog, conc;
  std::optional<lang::System> sys;  // outlives ts, which points into it
  std::optional<engine::SystemTransitions> ts;
  {
    Scoped setup{"setup", jid};
    std::vector<std::string> srcs;
    for (const auto& f : job.files) srcs.push_back(read_file(f));
    Scoped parse{"parser.parse_program", jid};
    prog.emplace(parser::parse_program(srcs[0]));
    if (srcs.size() > 1) conc.emplace(parser::parse_program(srcs[1]));
    g.parse_s += secs(parse.close());
    sys.emplace(conc ? conc->sys : prog->sys);
    if (job.kind == "race") {
      auto sem = sys->options();
      sem.race_detection = true;
      sys->set_options(sem);
    }
    ts.emplace(*sys, conc ? engine::AmplePolicy::ClientInvisible
                          : engine::AmplePolicy::FinalState);
    (void)make_abstraction(job, *sys);
  }

  const double checker_s = run_checker(job, *prog, conc ? &*conc : nullptr, *ts, res, jid);

  // Bare reference run (untraced), then the decorated run.
  const auto seq = reach_options(job, 1);
  double bare_s = 0;
  engine::ReachResult bare;
  {
    Scoped b{"engine.visit_reachable.bare", jid};
    bare = bare_reach(*ts, seq, bare_s);
  }
  if (checker_s > 0) {
    // Checker overheads are small differences of two walls: take the best
    // of three alternating runs of each.
    double best_checker = checker_s, best_bare = bare_s;
    for (int rep = 0; rep < 2; ++rep) {
      Json scratch = Json::object();
      best_checker = std::min(best_checker,
                              run_checker(job, *prog, conc ? &*conc : nullptr, *ts,
                                          scratch, jid));
      double again = 0;
      (void)bare_reach(*ts, seq, again);
      best_bare = std::min(best_bare, again);
    }
    const double over = best_checker - best_bare;
    if (job.kind == "race") g.race_overhead += over;
    else if (job.kind == "verify") g.og_overhead += over;
    else g.inv_overhead += over;
  }
  auto run = decorated_reach(*ts, seq, bare.stats.states, jid);
  g.bare_ns += static_cast<std::uint64_t>(bare_s * 1e9);
  g.reach_ns += run.wall_ns;
  g.succ_ns += run.acc.succ_ns; g.succ_calls += run.acc.succ_calls;
  g.succ_steps += run.acc.succ_steps; g.ample_ns += run.acc.ample_ns;
  g.visit_ns += run.acc.visit_ns;
  const auto& st = run.result.stats;
  g.reach_states += st.states; g.reach_transitions += st.transitions;
  g.peak_frontier = std::max(g.peak_frontier, st.peak_frontier);
  g.visited_bytes += st.visited_bytes;
  g.explained_ns += per_state_passes(job, *sys, run.samples, st, jid);

  if (job.kind == "race") {
    // Encoding growth: words per state with race clocks vs without.
    std::uint64_t w = 0;
    for (const auto& c : run.samples) w += c.encode().size();
    g.race_words += w; g.race_n += run.samples.size();
    engine::SystemTransitions plain_ts{prog->sys};
    std::uint64_t pw = 0, pn = 0;
    (void)engine::visit_reachable(plain_ts, seq, [&](const lang::Config& c, std::uint64_t,
                                                     std::span<const lang::Step>) {
      if (pn < kMaxSamples) { pw += c.encode().size(); ++pn; }
      return true;
    });
    g.plain_words += pw; g.plain_n += pn;
  }

  if (job.por || job.symmetry || job.rf_quotient) {
    Scoped u{"engine.visit_reachable.unreduced", jid};
    engine::ReachOptions plain;
    double plain_s = 0;
    const auto full = bare_reach(*ts, plain, plain_s);
    g.reduced_states += bare.stats.states;
    g.unreduced_states += full.stats.states;
    g.sleep_skips += bare.stats.sleep_set_skips;
    g.symmetry_hits += bare.stats.symmetry_hits;
    g.por_chained += bare.stats.por_chained;
  }

  if (job.threads > 1) {
    Scoped p{"engine.parallel", jid};
    const auto par = reach_options(job, job.threads);
    const double c0 = cpu_s(RUSAGE_SELF);
    double wall_n = 0;
    (void)bare_reach(*ts, par, wall_n);
    g.par_cpu += cpu_s(RUSAGE_SELF) - c0;
    g.par_cpu_wall += wall_n;
    g.par_wall1 += bare_s;
    g.par_wallN += wall_n;
    auto prun = decorated_reach(*ts, par, bare.stats.states, jid);
    g.par_busy_ns += static_cast<double>(prun.acc.succ_ns + prun.acc.ample_ns +
                                         prun.acc.visit_ns);
    g.par_capacity_s += secs(prun.wall_ns) * job.threads;
  }

  if (job.workers > 0) {
    Scoped s{"engine.supervise", jid};
    engine::DistOptions d;
    d.workers = job.workers;
    d.por = job.por;
    d.rf_quotient = job.rf_quotient;
    NullDelegate delegate;
    engine::ShardedVisitedSet sink;
    const double self0 = cpu_s(RUSAGE_SELF), kids0 = cpu_s(RUSAGE_CHILDREN);
    const auto t0 = now_ns();
    const auto dr = engine::supervise_reach(*ts, d, delegate, sink);
    g.sup_wall += secs(now_ns() - t0);
    g.sup_self_cpu += cpu_s(RUSAGE_SELF) - self0;
    g.sup_worker_cpu += cpu_s(RUSAGE_CHILDREN) - kids0;
    g.sup_seq_wall += bare_s;
    res.set("supervised_states", Json::integer(static_cast<std::int64_t>(dr.stats.states)));
  }
  res.set("states", Json::integer(static_cast<std::int64_t>(bare.stats.states)));
  jobs_out.push(std::move(res));
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

void put(Json& m, const std::string& name, double value, const char* unit) {
  std::ostringstream v;
  v.precision(17);
  v << value;
  auto o = Json::object();
  // The JSON library has no float kind: values travel as decimal strings and
  // run.py converts them back.
  o.set("value", Json::string(v.str()));
  o.set("unit", Json::string(unit));
  m.set(name, std::move(o));
}

Json layer_metrics() {
  Json m = Json::object();
  const double reach_s = secs(g.reach_ns);
  const double succ_s = secs(g.succ_ns), ample_s = secs(g.ample_ns);
  const double visit_s = secs(g.visit_ns);
  const double reach_self = reach_s - succ_s - ample_s - visit_s;
  put(m, "parser.parse_s", g.parse_s, "s");
  put(m, "lang.successors.self_s", succ_s, "s");
  put(m, "lang.successors.calls", static_cast<double>(g.succ_calls), "count");
  put(m, "lang.successors.ns_per_step",
      ratio(static_cast<double>(g.succ_ns), static_cast<double>(g.succ_steps)), "ns");
  put(m, "lang.encode.ns_per_state",
      ratio(static_cast<double>(g.enc_ns), static_cast<double>(g.enc_n)), "ns");
  put(m, "lang.encode.words_per_state",
      ratio(static_cast<double>(g.enc_words), static_cast<double>(g.enc_n)), "words");
  put(m, "engine.key.ns_per_state",
      ratio(static_cast<double>(g.key_ns), static_cast<double>(g.key_n)), "ns");
  put(m, "engine.key.words_per_state",
      ratio(static_cast<double>(g.key_words), static_cast<double>(g.key_n)), "words");
  put(m, "engine.ample.self_s", ample_s, "s");
  put(m, "engine.reduction.state_ratio",
      ratio(static_cast<double>(g.reduced_states), static_cast<double>(g.unreduced_states)),
      "ratio");
  put(m, "engine.sleep_set_skips", static_cast<double>(g.sleep_skips), "count");
  put(m, "engine.symmetry_hits", static_cast<double>(g.symmetry_hits), "count");
  put(m, "engine.por_chained", static_cast<double>(g.por_chained), "count");
  put(m, "engine.intern.ns_per_state",
      ratio(static_cast<double>(g.ins_ns), static_cast<double>(g.ins_n)), "ns");
  put(m, "engine.intern_traced.ns_per_state",
      ratio(static_cast<double>(g.inst_ns), static_cast<double>(g.inst_n)), "ns");
  put(m, "engine.visited.bytes_per_state",
      ratio(static_cast<double>(g.visited_bytes), static_cast<double>(g.reach_states)), "B");
  put(m, "engine.reach.self_s", reach_self, "s");
  put(m, "engine.reach.wall_s", reach_s, "s");
  put(m, "engine.reach.peak_frontier", static_cast<double>(g.peak_frontier), "count");
  put(m, "engine.reach.states", static_cast<double>(g.reach_states), "count");
  put(m, "engine.reach.transitions", static_cast<double>(g.reach_transitions), "count");
  put(m, "explore.visitor.self_s", visit_s, "s");
  put(m, "engine.parallel.speedup", ratio(g.par_wall1, g.par_wallN), "x");
  put(m, "engine.parallel.busy_frac", ratio(g.par_busy_ns * 1e-9, g.par_capacity_s), "ratio");
  put(m, "engine.parallel.cpu_per_wall", ratio(g.par_cpu, g.par_cpu_wall), "ratio");
  put(m, "engine.supervise.slowdown", ratio(g.sup_wall, g.sup_seq_wall), "x");
  put(m, "engine.supervise.worker_cpu_s", g.sup_worker_cpu, "s");
  put(m, "engine.supervise.supervisor_cpu_s", g.sup_self_cpu, "s");
  put(m, "engine.checkpoint.save_s", g.ckpt_save, "s");
  put(m, "engine.checkpoint.restore_s", g.ckpt_restore, "s");
  put(m, "engine.checkpoint.bytes_per_state",
      ratio(static_cast<double>(g.ckpt_bytes), static_cast<double>(g.ckpt_states)), "B");
  put(m, "explore.invariant.overhead_s", g.inv_overhead, "s");
  put(m, "og.check_outline.overhead_s", g.og_overhead, "s");
  put(m, "race.check.overhead_s", g.race_overhead, "s");
  put(m, "race.encoding_growth",
      ratio(ratio(static_cast<double>(g.race_words), static_cast<double>(g.race_n)),
            ratio(static_cast<double>(g.plain_words), static_cast<double>(g.plain_n))),
      "x");
  put(m, "refinement.build_graph_s", g.graph_s, "s");
  put(m, "refinement.simulation_s", g.sim_s, "s");
  put(m, "refinement.trace_inclusion_s", g.incl_s, "s");
  put(m, "witness.minimize_s", g.min_s, "s");
  put(m, "witness.replay_s", g.replay_s, "s");
  put(m, "witness.steps_removed_frac",
      g.steps_before ? 1.0 - ratio(static_cast<double>(g.steps_after),
                                   static_cast<double>(g.steps_before))
                     : 0.0,
      "ratio");
  put(m, "witness.json_bytes", static_cast<double>(g.json_bytes), "B");
  put(m, "trace.overhead_frac", ratio(static_cast<double>(g.reach_ns),
                                      static_cast<double>(g.bare_ns)) - 1.0, "ratio");
  put(m, "trace.coverage_frac",
      ratio(static_cast<double>(g.succ_ns + g.ample_ns + g.visit_ns) + g.explained_ns,
            static_cast<double>(g.reach_ns)),
      "ratio");
  return m;
}

// --- setup timing ------------------------------------------------------------

/// Samples per call; run.py calls `setup` several times spread over a
/// run (machine speed drifts over seconds) and reports the median.
constexpr int kSetupSamples = 5;

int run_setup(const std::vector<JobSpec>& jobs) {
  std::vector<std::pair<const JobSpec*, std::string>> programs;
  for (const auto& j : jobs) {
    for (const auto& f : j.files) programs.emplace_back(&j, read_file(f));
  }
  std::uint64_t sink = 0;
  const auto one_batch = [&] {
    for (const auto& [job, src] : programs) {
      auto p = parser::parse_program(src);
      engine::SystemTransitions ts{p.sys};
      auto a = make_abstraction(*job, p.sys);
      sink += p.sys.num_threads() + (a->nontrivial() ? 1U : 0U) +
              (ts.collapse_chains() ? 1U : 0U);
    }
  };
  one_batch();  // warm caches and the allocator
  // Each sample times enough whole batches to span >= 20 ms.
  std::vector<double> samples;
  std::uint64_t reps = 1;
  for (int s = 0; s < kSetupSamples; ++s) {
    for (;;) {
      const auto t0 = now_ns();
      for (std::uint64_t r = 0; r < reps; ++r) one_batch();
      const double dt = secs(now_ns() - t0);
      if (dt >= 0.02) { samples.push_back(dt / static_cast<double>(reps)); break; }
      reps *= 2;
    }
  }
  std::sort(samples.begin(), samples.end());
  std::cout.precision(17);
  std::cout << "{\"setup_s\": " << samples[samples.size() / 2]
            << ", \"programs\": " << programs.size() << ", \"reps\": " << reps
            << ", \"samples\": " << samples.size() << ", \"check\": " << (sink % 2)
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "setup" && argc == 3) return run_setup(load_manifest(argv[2]));
    if (mode == "trace" && argc == 4) {
      const auto jobs = load_manifest(argv[2]);
      auto jobs_out = Json::array();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        trace_job(jobs[i], static_cast<std::int64_t>(i), jobs_out);
      }
      g_spans.write(argv[3]);
      auto out = Json::object();
      out.set("metrics", layer_metrics());
      out.set("jobs", std::move(jobs_out));
      std::cout << out.dump() << "\n";
      return 0;
    }
    std::cerr << "usage: rc11-bench-trace setup MANIFEST | trace MANIFEST SPANS\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "rc11-bench-trace: " << e.what() << "\n";
    return 1;
  }
}
