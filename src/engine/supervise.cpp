#include "engine/supervise.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "engine/wire.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "witness/witness.hpp"

namespace rc11::engine {

namespace {

using Clock = std::chrono::steady_clock;
using witness::Json;

/// Backstop on lifetime restarts of one slot beyond the per-batch retry
/// budget, so a worker that dies outside any batch (e.g. repeated fork
/// failure) cannot respawn-loop forever.
constexpr std::uint64_t kLifetimeRestartSlack = 16;
/// Poll granularity cap: keeps deadline probing and timer handling
/// responsive even when every timer is far away.
constexpr int kPollSliceMs = 25;
/// Bytes requested per read(2) from a pipe.
constexpr std::size_t kReadChunk = 16384;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  support::require(errno == 0 && end != nullptr && *end == '\0' && parsed > 0,
                   name, " must be a positive integer, got '", v, "'");
  return parsed;
}

/// The supervisor's tuning: each knob reads its RC11_DIST_* environment
/// variable when the Supervisor is built, else the default.
struct Tuning {
  /// States per dispatched batch.
  std::uint64_t batch = env_u64("RC11_DIST_BATCH", 32);
  /// No frame from a worker with work outstanding for this long => it is
  /// wedged and gets killed/restarted.
  std::uint64_t hang_ms = env_u64("RC11_DIST_HANG_MS", 5000);
  /// Base restart backoff, doubled per consecutive restart of the slot.
  std::uint64_t backoff_ms = env_u64("RC11_DIST_BACKOFF_MS", 25);
  /// Times one batch may be retried after worker death/hang/corruption
  /// before the slot is given up for lost.
  std::uint64_t retries = env_u64("RC11_DIST_RETRIES", 2);
};

std::uint64_t get_u64(const Json& v, const char* what) {
  const std::int64_t i = v.as_int();
  support::require(i >= 0, "wire schema: ", what, " must be non-negative");
  return static_cast<std::uint64_t>(i);
}

memsem::ThreadId get_thread(const Json& v) {
  const std::uint64_t t = get_u64(v, "thread");
  support::require(t <= 0xFFFFFFFFull, "wire schema: thread id out of range");
  return static_cast<memsem::ThreadId>(t);
}

/// Ignores SIGPIPE for the duration of a supervised run (worker death turns
/// writes into EPIPE instead of killing the supervisor) and restores the
/// previous disposition on scope exit.  Workers inherit the ignore, which is
/// equally what they want.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ = {};
};

// --- parsed ack records ------------------------------------------------------

struct HopRec {
  memsem::ThreadId thread = 0;
  std::string label;
  std::vector<std::uint64_t> wire;  ///< the state's wire form
  std::size_t canonical = 0;        ///< length of its canonical prefix

  /// The canonical encoding: what the visited sets intern.
  [[nodiscard]] std::span<const std::uint64_t> enc() const {
    return {wire.data(), canonical};
  }
};

struct SuccRec {
  std::vector<HopRec> hops;       ///< direct successor, then the chain walk
  std::string wire_hex;           ///< the last hop's wire form, as received
  std::vector<std::uint64_t> key; ///< abstraction key (rf-quotient runs only)
};

struct StateRec {
  bool reduced = false;
  bool is_final = false;
  bool blocked = false;
  bool veto = false;
  std::uint64_t steps = 0;
  std::vector<Json> events;
  std::vector<SuccRec> succs;
};

StateRec parse_state_result(const Json& r, bool rf_quotient) {
  StateRec s;
  s.reduced = r.at("reduced").as_bool();
  s.is_final = r.at("final").as_bool();
  s.blocked = r.at("blocked").as_bool();
  s.veto = r.at("veto").as_bool();
  s.steps = get_u64(r.at("steps"), "steps");
  for (const Json& e : r.at("events").items()) s.events.push_back(e);
  for (const Json& js : r.at("succs").items()) {
    SuccRec succ;
    const std::vector<Json>& hops = js.at("hops").items();
    support::require(!hops.empty(), "wire schema: successor without hops");
    for (const Json& jh : hops) {
      HopRec hop;
      hop.thread = get_thread(jh.at("t"));
      hop.label = jh.at("l").as_string();
      wire::words_from_hex(jh.at("e").as_string(), hop.wire);
      const std::uint64_t n = get_u64(jh.at("n"), "canonical word count");
      support::require(n > 0 && n <= hop.wire.size(),
                       "wire schema: canonical word count ", n,
                       " out of range for a ", hop.wire.size(),
                       "-word wire form");
      hop.canonical = static_cast<std::size_t>(n);
      succ.hops.push_back(std::move(hop));
    }
    succ.wire_hex = hops.back().at("e").as_string();
    if (rf_quotient) {
      wire::words_from_hex(js.at("key").as_string(), succ.key);
      support::require(!succ.key.empty(),
                       "wire schema: empty abstraction key");
    }
    s.succs.push_back(std::move(succ));
  }
  return s;
}

// --- worker side -------------------------------------------------------------

/// Blocking write of the whole buffer; a worker whose supervisor vanished
/// (EPIPE) has nothing left to do and exits quietly.
void worker_write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(0);
    }
    off += static_cast<std::size_t>(n);
  }
}

void worker_send(int fd, const Json& msg) {
  worker_write_all(fd, wire::encode_frame(msg.dump()));
}

/// Blocking read of the next frame from the supervisor.  EOF means the
/// supervisor is gone (shutdown or death) — exit quietly either way.
Json worker_read_msg(int fd, wire::FrameReader& reader) {
  std::string_view payload;
  std::string error;
  for (;;) {
    switch (reader.next(payload, error)) {
      case wire::FrameReader::Status::Frame:
        return Json::parse(payload);
      case wire::FrameReader::Status::Corrupt:
        // The supervisor never sends garbage; a corrupt downstream means
        // the pipe is unusable.  Die; the supervisor will restart us.
        ::_exit(1);
      case wire::FrameReader::Status::NeedMore:
        break;
    }
    const ssize_t n = ::read(fd, reader.prepare(kReadChunk), kReadChunk);
    if (n == 0) ::_exit(0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(1);
    }
    reader.commit(static_cast<std::size_t>(n));
  }
}

/// The state a batch entry names: its wire form decoded, then re-encoded
/// and checked against the digest the supervisor sent with it, so a worker
/// expands exactly the state the supervisor holds (canonical encoding and
/// timestamps alike) or fails loudly.
Config decode_dispatched(const lang::System& sys, const Json& entry,
                         std::vector<std::uint64_t>& words) {
  wire::words_from_hex(entry.at("w").as_string(), words);
  const std::uint64_t want = witness::digest_from_hex(entry.at("d").as_string());
  Config cfg = Config::decode_wire(sys, words);
  words.clear();
  cfg.encode_wire(words);
  support::require(support::hash_words(words) == want,
                   "dispatched state does not match its digest");
  return cfg;
}

struct WorkerCtx {
  const TransitionSystem& ts;
  const DistOptions& options;
  DistDelegate& delegate;
  unsigned index = 0;
  int rfd = -1;  ///< frames from the supervisor
  int wfd = -1;  ///< frames to the supervisor
};

[[noreturn]] void worker_main(const WorkerCtx& ctx) {
  try {
    const TransitionSystem& ts = ctx.ts;
    const DistOptions& opts = ctx.options;
    Json hello = Json::object();
    hello.set("type", Json::string("hello"));
    hello.set("worker", Json::integer(static_cast<std::int64_t>(ctx.index)));
    worker_send(ctx.wfd, hello);

    std::unique_ptr<StateAbstraction> abs;
    if (opts.rf_quotient) {
      abs = make_rf_quotient_abstraction(ts.system(), opts.rf_pins);
    }
    ReachOptions expand_opts;
    expand_opts.por = opts.por;
    const bool collapse = opts.por && ts.collapse_chains();

    wire::FrameReader reader;
    StepBuffer steps;
    StepBuffer chain_buf;
    AbstractKey key;
    std::vector<std::uint64_t> enc;
    std::vector<Json> events;

    const auto push_hop = [&](Json& hops, memsem::ThreadId thread,
                              std::string&& label, const Config& after) {
      Json h = Json::object();
      h.set("t", Json::integer(static_cast<std::int64_t>(thread)));
      h.set("l", Json::string(std::move(label)));
      enc.clear();
      const std::size_t canonical = after.encode_wire(enc);
      h.set("e", Json::string(wire::words_hex(enc)));
      h.set("n", Json::integer(static_cast<std::int64_t>(canonical)));
      hops.push(std::move(h));
    };

    for (;;) {
      Json msg = worker_read_msg(ctx.rfd, reader);
      const std::string& type = msg.at("type").as_string();
      if (type == "shutdown") ::_exit(0);
      if (type != "batch") continue;  // unknown types: forward compatibility
      const std::uint64_t seq = get_u64(msg.at("seq"), "seq");
      const std::uint64_t dispatch = get_u64(msg.at("dispatch"), "dispatch");
      const FaultPlan::ProcessFault* pf =
          opts.fault.process_fault_at(dispatch);
      const std::vector<Json>& states = msg.at("states").items();
      const std::size_t crash_at = states.size() / 2;

      Json results = Json::array();
      for (std::size_t si = 0; si < states.size(); ++si) {
        if (pf != nullptr && pf->kind == FaultPlan::Kind::Crash &&
            si == crash_at) {
          ::_exit(2);  // the injected mid-batch crash
        }
        if ((si % 8) == 0) {
          Json hb = Json::object();
          hb.set("type", Json::string("hb"));
          worker_send(ctx.wfd, hb);
        }
        const Config cfg = decode_dispatched(ts.system(), states[si], enc);

        Json r = Json::object();
        steps.clear();
        const bool reduced =
            expand_steps(ts, cfg, expand_opts, steps, /*want_labels=*/true);
        const bool is_final =
            steps.steps().empty() && cfg.all_done(ts.system());
        r.set("reduced", Json::boolean(reduced));
        r.set("final", Json::boolean(is_final));
        r.set("blocked", Json::boolean(steps.steps().empty() && !is_final));
        r.set("steps", Json::integer(
                           static_cast<std::int64_t>(steps.steps().size())));
        events.clear();
        const bool keep = ctx.delegate.evaluate(cfg, steps.steps(), events);
        r.set("veto", Json::boolean(!keep));
        Json evs = Json::array();
        for (Json& e : events) evs.push(std::move(e));
        r.set("events", std::move(evs));

        Json succs = Json::array();
        for (lang::Step& step : steps.steps()) {
          Json s = Json::object();
          Json hops = Json::array();
          // Walked and keyed in place: nothing here outlives the ack, so the
          // step buffers keep every state's capacity.
          Config& after = step.after;
          push_hop(hops, step.thread, std::move(step.label), after);
          if (collapse) {
            // Mirror the driver's chain walk: every intermediate state is a
            // hop, whether or not the supervisor ends up interning it.
            while (const auto ct = chain_thread(ts, after)) {
              chain_buf.clear();
              ts.thread_successors_into(after, *ct, chain_buf,
                                        /*want_labels=*/true);
              lang::Step& cstep = chain_buf.steps()[0];
              std::swap(after, cstep.after);
              push_hop(hops, cstep.thread, std::move(cstep.label), after);
            }
          }
          s.set("hops", std::move(hops));
          if (abs != nullptr) {
            abs->key(after, key);
            s.set("key", Json::string(wire::words_hex(key.encoding)));
          }
          succs.push(std::move(s));
        }
        r.set("succs", std::move(succs));
        results.push(std::move(r));
      }

      if (pf != nullptr && pf->kind == FaultPlan::Kind::Hang) {
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
      }
      Json ack = Json::object();
      ack.set("type", Json::string("ack"));
      ack.set("seq", Json::integer(static_cast<std::int64_t>(seq)));
      ack.set("results", std::move(results));
      std::string frame = wire::encode_frame(ack.dump());
      if (pf != nullptr && pf->kind == FaultPlan::Kind::Corrupt &&
          frame.size() > wire::kHeaderBytes) {
        // Flip a payload byte *after* the CRC was computed: the frame
        // arrives intact-looking but fails validation at the supervisor.
        const std::size_t mid =
            wire::kHeaderBytes + (frame.size() - wire::kHeaderBytes) / 2;
        frame[mid] = static_cast<char>(frame[mid] ^ 0x5A);
      }
      worker_write_all(ctx.wfd, frame);
    }
  } catch (const std::exception& e) {
    try {
      Json err = Json::object();
      err.set("type", Json::string("error"));
      err.set("what", Json::string(e.what()));
      worker_send(ctx.wfd, err);
    } catch (...) {
    }
    ::_exit(1);
  }
}

// --- supervisor side ---------------------------------------------------------

/// An enqueued state as the supervisor dispatches it: the hex wire form and
/// the digest of its words, which the worker re-checks after decoding.
struct WireForm {
  std::string hex;
  std::uint64_t digest = 0;
};

struct Batch {
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> idxs;  ///< global enqueue indices, in order
  std::uint64_t retries = 0;
};

struct WorkerSlot {
  pid_t pid = -1;
  int rfd = -1;  ///< frames from the worker
  int wfd = -1;  ///< frames to the worker
  wire::FrameReader reader;
  std::string outbox;
  std::size_t outbox_off = 0;
  Clock::time_point last_heard{};
  std::optional<Batch> outstanding;
  std::uint64_t restarts = 0;
  bool alive = false;
  bool dead_forever = false;  ///< retry budget exhausted; partition orphaned
  bool respawn_pending = false;
  Clock::time_point respawn_at{};
};

class Supervisor {
 public:
  Supervisor(const TransitionSystem& ts, const DistOptions& options,
             DistDelegate& delegate, ShardedVisitedSet& sink)
      : ts_(ts),
        options_(options),
        delegate_(delegate),
        sink_(sink),
        collapse_(options.por && ts.collapse_chains()),
        reduced_(options.rf_quotient),
        nworkers_(options.workers),
        enforcer_(options.budget, options.cancel, options.fault,
                  [this]() -> std::uint64_t {
                    return static_cast<std::uint64_t>(sink_.bytes()) +
                           (reduced_ ? static_cast<std::uint64_t>(
                                           canon_.bytes())
                                     : 0);
                  }) {
    if (reduced_) {
      abs_ = make_rf_quotient_abstraction(ts.system(), options.rf_pins);
    }
    slots_.resize(nworkers_);
    queues_.resize(nworkers_);
  }

  DistResult run();

 private:
  // ---- seeding / enqueue ----

  void seed() {
    const Config init = ts_.initial();
    std::vector<std::uint64_t> words;
    const std::size_t canonical = init.encode_wire(words);
    const std::span<const std::uint64_t> enc(words.data(), canonical);
    const auto ins = sink_.insert_traced(enc, ShardedVisitedSet::kNoState, 0,
                                         "init");
    RC11_REQUIRE(ins.inserted, "supervised run requires an empty trace sink");
    const std::uint64_t digest = support::hash_words(words);
    if (reduced_) {
      abs_->key(init, key_);
      canon_.insert_masked(key_.encoding, 0);
      enqueue(ins.id, key_.encoding, wire::words_hex(words), digest);
    } else {
      enqueue(ins.id, enc, wire::words_hex(words), digest);
    }
  }

  /// Appends a freshly interned frontier state: assigns the next global
  /// enqueue index (the absorption order), keeps its wire form and digest
  /// for dispatch until it is absorbed, and queues it on the hash partition
  /// its key names.  A dead partition's work goes straight to quarantine —
  /// it can never be served again.
  void enqueue(std::uint64_t sink_id, std::span<const std::uint64_t> part_key,
               std::string wire, std::uint64_t digest) {
    const std::uint64_t idx = states_by_idx_.size();
    states_by_idx_.push_back(sink_id);
    wires_.push_back(WireForm{std::move(wire), digest});
    const auto part = static_cast<std::size_t>(support::hash_words(part_key) %
                                               nworkers_);
    if (slots_[part].dead_forever) {
      orphaned_.insert(idx);
    } else {
      queues_[part].push_back(idx);
    }
  }

  // ---- deterministic absorption (mirrors engine/reach.cpp) ----

  enum class Absorb { Continue, Stop };

  /// Absorbs every result that is next in global order; returns false when
  /// the run must stop now (budget decision or delegate veto).
  bool drain_absorbable() {
    for (;;) {
      if (orphaned_.erase(next_absorb_) != 0) {
        telemetry_.states_orphaned += 1;
        consumed_ += 1;
        advance_absorb();
        continue;
      }
      const auto it = ready_.find(next_absorb_);
      if (it == ready_.end()) return true;
      StateRec rec = std::move(it->second);
      ready_.erase(it);
      const Absorb outcome = absorb_one(next_absorb_, rec);
      advance_absorb();
      if (outcome == Absorb::Stop) return false;
    }
  }

  /// Moves past the state at next_absorb_, dropping its wire form.
  void advance_absorb() {
    wires_.pop_front();
    next_absorb_ += 1;
  }

  /// The kept wire form of a not-yet-absorbed state.
  [[nodiscard]] const WireForm& wire_of(std::uint64_t idx) const {
    return wires_[static_cast<std::size_t>(idx - next_absorb_)];
  }

  Absorb absorb_one(std::uint64_t idx, StateRec& rec) {
    // Same gate order as the sequential driver: claim before the item is
    // consumed, so a budget stop leaves it (and everything after it)
    // enqueued in the sink for checkpoint resume.
    const StopReason gate = enforcer_.claim();
    if (gate != StopReason::Complete) {
      budget_stop_ = true;
      return Absorb::Stop;
    }
    const std::uint64_t frontier_size = states_by_idx_.size() - consumed_;
    stats_.peak_frontier = std::max(stats_.peak_frontier, frontier_size);
    stats_.states += 1;
    if (rec.reduced) stats_.por_reduced += 1;
    if (rec.is_final) {
      stats_.finals += 1;
    } else if (rec.blocked) {
      stats_.blocked += 1;
    }
    stats_.transitions += rec.steps;

    // The visitor runs before successor processing, exactly like the
    // sequential driver; its veto stops the run *after* this state's
    // successors are interned (so the sink stays checkpoint-consistent).
    bool keep = !rec.veto;
    const std::uint64_t sink_id = states_by_idx_[idx];
    for (const Json& event : rec.events) {
      if (!delegate_.absorb(event, sink_id, sink_)) keep = false;
    }
    for (SuccRec& succ : rec.succs) {
      if (reduced_) {
        absorb_succ_reduced(sink_id, succ);
      } else {
        absorb_succ_plain(sink_id, succ);
      }
    }
    consumed_ += 1;
    if (!keep) {
      veto_ = true;
      return Absorb::Stop;
    }
    return Absorb::Continue;
  }

  /// Plain / POR-collapse interning: hop 0 is the direct successor (a
  /// chain-start is interned unenqueued), later hops are chain-internal
  /// states, the last hop is the enqueued chain end.  First duplicate drops
  /// the whole branch — whichever expansion interned it first also interned
  /// the same deterministic suffix.
  void absorb_succ_plain(std::uint64_t parent, SuccRec& succ) {
    HopRec& h0 = succ.hops.front();
    const bool chain_start = collapse_ && succ.hops.size() > 1;
    const auto ins = sink_.insert_traced(h0.enc(), parent, h0.thread,
                                         std::move(h0.label), !chain_start);
    if (!ins.inserted) return;
    std::uint64_t id = ins.id;
    for (std::size_t k = 1; k < succ.hops.size(); ++k) {
      HopRec& hk = succ.hops[k];
      const bool last = k + 1 == succ.hops.size();
      const auto cins = sink_.insert_traced(hk.enc(), id, hk.thread,
                                            std::move(hk.label), last);
      if (!cins.inserted) return;
      stats_.por_chained += 1;
      id = cins.id;
    }
    const HopRec& end = succ.hops.back();
    enqueue(id, end.enc(), std::move(succ.wire_hex),
            support::hash_words(end.wire));
  }

  /// Rf-quotient interning: intermediate hops resolve (walking through
  /// duplicates), the chain end's abstraction key decides membership in the
  /// canonical set, and only a fresh class enqueues its concrete
  /// representative.  Identical to process_steps_reduced with sleep sets
  /// off (all-zero masks never revisit).
  void absorb_succ_reduced(std::uint64_t parent, SuccRec& succ) {
    for (std::size_t k = 0; k + 1 < succ.hops.size(); ++k) {
      HopRec& hk = succ.hops[k];
      parent = sink_.resolve_traced(hk.enc(), parent, hk.thread,
                                    std::move(hk.label), /*enqueued=*/false)
                   .id;
      stats_.por_chained += 1;
    }
    HopRec& last = succ.hops.back();
    const auto cins = sink_.resolve_traced(last.enc(), parent, last.thread,
                                           std::move(last.label),
                                           /*enqueued=*/false);
    const auto r = canon_.insert_masked(succ.key, 0);
    if (!r.inserted) {
      if (cins.inserted) stats_.rf_merges += 1;
      return;
    }
    sink_.mark_enqueued(cins.id);
    enqueue(cins.id, succ.key, std::move(succ.wire_hex),
            support::hash_words(last.wire));
  }

  // ---- process management ----

  void spawn(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    slot.respawn_pending = false;
    int down[2] = {-1, -1};
    int up[2] = {-1, -1};
    if (::pipe(down) != 0 || ::pipe(up) != 0) {
      if (down[0] >= 0) {
        ::close(down[0]);
        ::close(down[1]);
      }
      respawn_failed(w);
      return;
    }
    // The child would otherwise duplicate any buffered stdio into its own
    // (short) lifetime of the streams.
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(down[0]);
      ::close(down[1]);
      ::close(up[0]);
      ::close(up[1]);
      respawn_failed(w);
      return;
    }
    if (pid == 0) {
      // Child: keep only this slot's two pipe ends.  Holding a sibling's
      // supervisor-side descriptors would defeat its EOF detection.
      ::close(down[1]);
      ::close(up[0]);
      for (WorkerSlot& other : slots_) {
        if (other.rfd >= 0) ::close(other.rfd);
        if (other.wfd >= 0) ::close(other.wfd);
      }
      WorkerCtx ctx{ts_, options_, delegate_, static_cast<unsigned>(w),
                    down[0], up[1]};
      worker_main(ctx);  // noreturn (_exit, never the parent's atexit)
    }
    ::close(down[0]);
    ::close(up[1]);
    ::fcntl(up[0], F_SETFL, O_NONBLOCK);
    ::fcntl(down[1], F_SETFL, O_NONBLOCK);
    slot.pid = pid;
    slot.rfd = up[0];
    slot.wfd = down[1];
    slot.reader = wire::FrameReader{};
    slot.outbox.clear();
    slot.outbox_off = 0;
    slot.alive = true;
    slot.last_heard = Clock::now();
    if (slot.outstanding.has_value()) {
      // Replays only unacked work: the resent batch carries a fresh seq and
      // dispatch index, so single-shot injected faults do not re-fire.
      send_batch(w, *slot.outstanding);
    }
  }

  void respawn_failed(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    slot.restarts += 1;
    if (slot.restarts > tuning_.retries + kLifetimeRestartSlack) {
      orphan_slot(w);
      return;
    }
    slot.respawn_pending = true;
    slot.respawn_at =
        Clock::now() + std::chrono::milliseconds(tuning_.backoff_ms);
  }

  void kill_slot(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    if (!slot.alive) return;
    if (slot.wfd >= 0) ::close(slot.wfd);
    if (slot.rfd >= 0) ::close(slot.rfd);
    slot.wfd = slot.rfd = -1;
    ::kill(slot.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    slot.pid = -1;
    slot.alive = false;
    slot.outbox.clear();
    slot.outbox_off = 0;
  }

  /// A worker died, hung, or sent garbage: kill it, account the retry, and
  /// either schedule a backed-off restart (resending the unacked batch) or
  /// give the slot up for lost.
  void recover(std::size_t w, bool corrupt) {
    WorkerSlot& slot = slots_[w];
    if (corrupt) telemetry_.frames_corrupt += 1;
    kill_slot(w);
    telemetry_.worker_restarts += 1;
    slot.restarts += 1;
    if (slot.outstanding.has_value()) {
      slot.outstanding->retries += 1;
      telemetry_.batches_retried += 1;
    }
    const bool batch_exhausted = slot.outstanding.has_value() &&
                                 slot.outstanding->retries > tuning_.retries;
    const bool slot_exhausted =
        slot.restarts > tuning_.retries + kLifetimeRestartSlack;
    if (batch_exhausted || slot_exhausted) {
      orphan_slot(w);
      return;
    }
    const std::uint64_t shift =
        std::min<std::uint64_t>(slot.restarts > 0 ? slot.restarts - 1 : 0, 6);
    slot.respawn_pending = true;
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(
                                         tuning_.backoff_ms << shift);
  }

  /// Quarantines a slot for good: its outstanding and queued states are
  /// orphaned (counted, skipped in absorption order, left enqueued in the
  /// sink so a checkpoint can resume them) and the run degrades to a
  /// WorkerLost partial report once the survivors drain.
  void orphan_slot(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    kill_slot(w);
    slot.dead_forever = true;
    slot.respawn_pending = false;
    lost_ = true;
    if (slot.outstanding.has_value()) {
      for (std::uint64_t idx : slot.outstanding->idxs) orphaned_.insert(idx);
      slot.outstanding.reset();
    }
    for (std::uint64_t idx : queues_[w]) orphaned_.insert(idx);
    queues_[w].clear();
  }

  // ---- wire I/O ----

  void send_frame(std::size_t w, const Json& msg) {
    WorkerSlot& slot = slots_[w];
    if (!slot.alive) return;
    slot.outbox.append(wire::encode_frame(msg.dump()));
    flush_outbox(w);
  }

  void flush_outbox(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    while (slot.alive && slot.outbox_off < slot.outbox.size()) {
      const ssize_t n = ::write(slot.wfd, slot.outbox.data() + slot.outbox_off,
                                slot.outbox.size() - slot.outbox_off);
      if (n > 0) {
        slot.outbox_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      recover(w, /*corrupt=*/false);  // EPIPE or a real write error
      return;
    }
    if (slot.outbox_off == slot.outbox.size()) {
      slot.outbox.clear();
      slot.outbox_off = 0;
    }
  }

  void send_batch(std::size_t w, Batch& batch) {
    batch.seq = ++seq_counter_;
    const std::uint64_t dispatch = ++dispatch_counter_;
    Json msg = Json::object();
    msg.set("type", Json::string("batch"));
    msg.set("seq", Json::integer(static_cast<std::int64_t>(batch.seq)));
    msg.set("dispatch", Json::integer(static_cast<std::int64_t>(dispatch)));
    Json states = Json::array();
    for (const std::uint64_t idx : batch.idxs) {
      const WireForm& form = wire_of(idx);
      Json state = Json::object();
      state.set("w", Json::string(form.hex));
      state.set("d", Json::string(witness::digest_to_hex(form.digest)));
      states.push(std::move(state));
    }
    msg.set("states", std::move(states));
    send_frame(w, msg);
  }

  void dispatch_all() {
    for (std::size_t w = 0; w < nworkers_; ++w) {
      WorkerSlot& slot = slots_[w];
      if (!slot.alive || slot.outstanding.has_value() || queues_[w].empty()) {
        continue;
      }
      Batch batch;
      const std::size_t take = std::min<std::size_t>(
          queues_[w].size(), static_cast<std::size_t>(tuning_.batch));
      batch.idxs.assign(queues_[w].begin(),
                        queues_[w].begin() + static_cast<std::ptrdiff_t>(take));
      queues_[w].erase(queues_[w].begin(),
                       queues_[w].begin() + static_cast<std::ptrdiff_t>(take));
      slot.outstanding = std::move(batch);
      send_batch(w, *slot.outstanding);
    }
  }

  /// Handles one validated frame from worker `w`; throws support::Error on
  /// any schema violation (the caller poisons the worker).
  void handle_frame(std::size_t w, std::string_view payload) {
    WorkerSlot& slot = slots_[w];
    const Json msg = Json::parse(payload);
    const std::string& type = msg.at("type").as_string();
    if (type == "hello" || type == "hb") return;  // liveness only
    if (type == "error") {
      support::fail("worker reported: ", msg.at("what").as_string());
    }
    support::require(type == "ack", "unexpected frame type '", type, "'");
    support::require(slot.outstanding.has_value(),
                     "ack with no batch outstanding");
    const std::uint64_t seq = get_u64(msg.at("seq"), "seq");
    support::require(seq == slot.outstanding->seq, "ack for stale seq ", seq,
                     " (expected ", slot.outstanding->seq, ")");
    const std::vector<Json>& results = msg.at("results").items();
    support::require(results.size() == slot.outstanding->idxs.size(),
                     "ack carries ", results.size(), " results for ",
                     slot.outstanding->idxs.size(), " states");
    // Parse everything before committing anything: a schema failure halfway
    // through must leave the batch fully unacked (it will be retried whole).
    std::vector<StateRec> parsed;
    parsed.reserve(results.size());
    for (const Json& r : results) {
      parsed.push_back(parse_state_result(r, reduced_));
    }
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      ready_.emplace(slot.outstanding->idxs[i], std::move(parsed[i]));
    }
    slot.outstanding.reset();
  }

  /// Drains readable bytes from worker `w`, processing complete frames.
  /// Returns false when the worker must be recovered (EOF / read error /
  /// corrupt or malformed frame — recovery already performed).
  bool service_read(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    bool eof = false;
    for (;;) {
      const ssize_t n =
          ::read(slot.rfd, slot.reader.prepare(kReadChunk), kReadChunk);
      if (n > 0) {
        slot.reader.commit(static_cast<std::size_t>(n));
        slot.last_heard = Clock::now();
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true;
      break;
    }
    std::string_view payload;
    std::string error;
    for (;;) {
      const auto status = slot.reader.next(payload, error);
      if (status == wire::FrameReader::Status::NeedMore) break;
      if (status == wire::FrameReader::Status::Corrupt) {
        recover(w, /*corrupt=*/true);
        return false;
      }
      try {
        handle_frame(w, payload);
      } catch (const std::exception&) {
        // Malformed-but-CRC-clean content: same quarantine as a CRC fail.
        recover(w, /*corrupt=*/true);
        return false;
      }
    }
    if (eof) {
      recover(w, /*corrupt=*/false);
      return false;
    }
    return true;
  }

  void step_io() {
    const Clock::time_point now = Clock::now();
    // Poll timeout: the nearest timer (respawn deadline or hang deadline),
    // capped so budget probing stays responsive.
    int timeout_ms = kPollSliceMs;
    const auto consider = [&](Clock::time_point when) {
      long long left = std::chrono::duration_cast<std::chrono::milliseconds>(
                           when - now)
                           .count();
      if (left < 0) left = 0;
      if (left < timeout_ms) timeout_ms = static_cast<int>(left);
    };
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t w = 0; w < nworkers_; ++w) {
      WorkerSlot& slot = slots_[w];
      if (slot.respawn_pending) consider(slot.respawn_at);
      if (!slot.alive) continue;
      if (slot.outstanding.has_value()) {
        consider(slot.last_heard +
                 std::chrono::milliseconds(tuning_.hang_ms));
      }
      pollfd p{};
      p.fd = slot.rfd;
      p.events = POLLIN;
      if (slot.outbox_off < slot.outbox.size()) p.events |= POLLOUT;
      // POLLOUT must watch the write fd; poll one entry per direction.
      fds.push_back(p);
      owners.push_back(w);
      if (slot.outbox_off < slot.outbox.size()) {
        pollfd q{};
        q.fd = slot.wfd;
        q.events = POLLOUT;
        fds.push_back(q);
        owners.push_back(w);
      }
    }
    if (!fds.empty()) {
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    } else if (timeout_ms > 0) {
      ::poll(nullptr, 0, timeout_ms);
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::size_t w = owners[i];
      WorkerSlot& slot = slots_[w];
      if (!slot.alive) continue;  // recovered earlier in this sweep
      if (fds[i].fd == slot.wfd && (fds[i].revents & POLLOUT) != 0) {
        flush_outbox(w);
      } else if (fds[i].fd == slot.rfd &&
                 (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        service_read(w);
      }
    }
    const Clock::time_point after = Clock::now();
    for (std::size_t w = 0; w < nworkers_; ++w) {
      WorkerSlot& slot = slots_[w];
      if (slot.alive) {
        // waitpid death sweep: drain any final frames first, so a worker
        // that crashed *after* writing its ack costs no retry.
        int status = 0;
        const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
        if (reaped == slot.pid) {
          if (service_read(w)) {
            slot.pid = -1;  // already reaped; kill_slot must not wait again
            ::close(slot.rfd);
            ::close(slot.wfd);
            slot.rfd = slot.wfd = -1;
            slot.alive = false;
            slot.outbox.clear();
            slot.outbox_off = 0;
            recover_reaped(w);
          }
          continue;
        }
        // Hang detection: outstanding work and radio silence too long.
        if (slot.outstanding.has_value() &&
            after - slot.last_heard >
                std::chrono::milliseconds(tuning_.hang_ms)) {
          recover(w, /*corrupt=*/false);
        }
      } else if (slot.respawn_pending && after >= slot.respawn_at) {
        spawn(w);
      }
    }
  }

  /// recover() for a worker that was already reaped and closed: accounts
  /// the retry / schedules the restart without the kill/waitpid step.
  void recover_reaped(std::size_t w) {
    WorkerSlot& slot = slots_[w];
    telemetry_.worker_restarts += 1;
    slot.restarts += 1;
    if (slot.outstanding.has_value()) {
      slot.outstanding->retries += 1;
      telemetry_.batches_retried += 1;
    }
    const bool batch_exhausted = slot.outstanding.has_value() &&
                                 slot.outstanding->retries > tuning_.retries;
    const bool slot_exhausted =
        slot.restarts > tuning_.retries + kLifetimeRestartSlack;
    if (batch_exhausted || slot_exhausted) {
      orphan_slot(w);
      return;
    }
    const std::uint64_t shift =
        std::min<std::uint64_t>(slot.restarts > 0 ? slot.restarts - 1 : 0, 6);
    slot.respawn_pending = true;
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(
                                         tuning_.backoff_ms << shift);
  }

  bool any_outstanding() const {
    for (const WorkerSlot& slot : slots_) {
      if (slot.outstanding.has_value()) return true;
      if (slot.respawn_pending) return true;  // restart will resend
    }
    return false;
  }

  void orphan_all_queues() {
    for (std::size_t w = 0; w < nworkers_; ++w) {
      for (std::uint64_t idx : queues_[w]) orphaned_.insert(idx);
      queues_[w].clear();
    }
  }

  void shutdown_all() {
    for (std::size_t w = 0; w < nworkers_; ++w) kill_slot(w);
  }

  // ---- members ----

  const TransitionSystem& ts_;
  const DistOptions& options_;
  DistDelegate& delegate_;
  ShardedVisitedSet& sink_;
  const Tuning tuning_;
  const bool collapse_;
  const bool reduced_;
  const std::size_t nworkers_;
  BudgetEnforcer enforcer_;
  std::unique_ptr<StateAbstraction> abs_;
  AbstractKey key_;
  ShardedVisitedSet canon_;  ///< abstraction-key set (rf-quotient runs only)

  std::vector<WorkerSlot> slots_;
  std::vector<std::deque<std::uint64_t>> queues_;  ///< per-partition FIFOs
  std::vector<std::uint64_t> states_by_idx_;       ///< enqueue idx -> sink id
  /// Wire forms of the states not yet absorbed; front() is next_absorb_.
  std::deque<WireForm> wires_;
  std::map<std::uint64_t, StateRec> ready_;        ///< buffered early results
  std::set<std::uint64_t> orphaned_;               ///< quarantined idxs
  std::uint64_t next_absorb_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t seq_counter_ = 0;
  std::uint64_t dispatch_counter_ = 0;

  ExploreStats stats_;
  DistTelemetry telemetry_;
  bool veto_ = false;
  bool budget_stop_ = false;
  bool lost_ = false;
};

DistResult Supervisor::run() {
  seed();
  for (std::size_t w = 0; w < nworkers_; ++w) spawn(w);
  for (;;) {
    if (!drain_absorbable()) break;  // budget stop or delegate veto
    if (next_absorb_ == states_by_idx_.size()) break;  // frontier consumed
    if (lost_ && !any_outstanding()) {
      // Survivors drained: quarantine whatever can no longer be dispatched
      // and let the absorption loop consume it as orphan skips.
      orphan_all_queues();
      if (orphaned_.empty() && ready_.empty()) break;  // defensive backstop
      continue;
    }
    if (!lost_) dispatch_all();
    step_io();
    if (enforcer_.probe() != StopReason::Complete) {
      // Deadline / cancellation / memory cap fires even while every worker
      // is wedged: the supervisor never blocks longer than one poll slice.
      budget_stop_ = true;
      break;
    }
  }
  shutdown_all();
  stats_.visited_bytes = static_cast<std::uint64_t>(sink_.bytes()) +
                         (reduced_ ? static_cast<std::uint64_t>(canon_.bytes())
                                   : 0);
  DistResult result;
  result.stats = stats_;
  result.telemetry = telemetry_;
  if (budget_stop_) {
    result.stop = enforcer_.reason();
  } else if (lost_) {
    result.stop = StopReason::WorkerLost;
  } else {
    result.stop = StopReason::Complete;
  }
  return result;
}

}  // namespace

DistResult supervise_reach(const TransitionSystem& ts,
                           const DistOptions& options, DistDelegate& delegate,
                           ShardedVisitedSet& sink) {
  support::require(options.workers >= 1,
                   "supervised exploration requires at least one worker");
  SigpipeGuard sigpipe;
  Supervisor supervisor(ts, options, delegate, sink);
  return supervisor.run();
}

}  // namespace rc11::engine
