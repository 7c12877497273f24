// State-representation exactness: the interned visited set (and every
// wrapper over it — the lock-striped set's plain, traced, resolving and
// masked forms, and the sequential masked set) must be indistinguishable
// from a reference std::set<std::vector<uint64_t>> oracle — over full
// explorations of every sample program and litmus test, over adversarial
// randomized inserts, under forced digest collisions, and across the
// seed-then-reach boundary (initial state and checkpoint seeding against
// successor lookups).  Also pins down the encode()/encode_into equivalence
// and the pooled-StepBuffer/vector successor equivalence the hot-path
// rewiring relies on, including the drivers' hand-back of duplicates, and
// the invertible wire form the supervised driver ships states in: it
// round-trips every reachable corpus state under four semantics, and
// hostile input fails with a diagnostic, never a crash or a false match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/wire.hpp"
#include "explore/explorer.hpp"
#include "lang/config.hpp"
#include "litmus/litmus.hpp"
#include "parser/parser.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11;
using lang::Config;
using lang::System;
using engine::SeqMaskedSet;
using engine::ShardedVisitedSet;
using support::InternedWordSet;
using support::PackedWords;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

const char* kPrograms[] = {
    "lock_client_abstract.rc11", "lock_client_broken.rc11",
    "lock_client_seqlock.rc11",  "mp_broken_outline.rc11",
    "mp_stack.rc11",             "mp_verified.rc11",
    "sb.rc11",                   "ticket_lock.rc11",
};

/// Explores `sys` by BFS, deduplicating with the std::set oracle while
/// mirroring every insert into an InternedWordSet and a ShardedVisitedSet.
/// Every novelty verdict must agree with the oracle's, for every state the
/// semantics can reach in `sys` (bounded for safety).
void check_oracle_equivalence(const System& sys, const std::string& what) {
  std::set<std::vector<std::uint64_t>> oracle;
  InternedWordSet interned;
  engine::ShardedVisitedSet sharded(8);

  const auto insert_all = [&](const Config& cfg) {
    const auto enc = cfg.encode();
    const bool fresh = oracle.insert(enc).second;
    EXPECT_EQ(interned.insert(enc), fresh) << what;
    EXPECT_EQ(sharded.insert(enc), fresh) << what;
    return fresh;
  };

  std::deque<Config> frontier;
  {
    Config init = lang::initial_config(sys);
    insert_all(init);
    frontier.push_back(std::move(init));
  }
  std::uint64_t expanded = 0;
  while (!frontier.empty() && expanded < 200'000) {
    Config cfg = std::move(frontier.front());
    frontier.pop_front();
    expanded += 1;
    for (auto& step : lang::successors(sys, cfg)) {
      // Duplicates are re-offered on purpose: the visited sets must refuse
      // them exactly when the oracle does.
      if (insert_all(step.after)) frontier.push_back(std::move(step.after));
    }
  }
  EXPECT_EQ(interned.size(), oracle.size()) << what;
  EXPECT_EQ(sharded.size(), oracle.size()) << what;
  EXPECT_GT(interned.bytes(), 0u) << what;
  for (const auto& enc : oracle) {
    EXPECT_TRUE(interned.contains(enc)) << what;
  }
}

TEST(StateRepr, OracleEquivalenceOverSamplePrograms) {
  for (const auto* name : kPrograms) {
    const auto program = parser::parse_file(prog(name));
    check_oracle_equivalence(program.sys, name);
  }
}

TEST(StateRepr, OracleEquivalenceOverLitmusTests) {
  for (auto& test : litmus::all_tests()) {
    check_oracle_equivalence(test.sys, test.name);
  }
}

TEST(StateRepr, EncodeIntoMatchesEncode) {
  for (auto& test : litmus::all_tests()) {
    std::vector<std::uint64_t> scratch;
    std::deque<Config> frontier;
    std::set<std::vector<std::uint64_t>> seen;
    frontier.push_back(lang::initial_config(test.sys));
    while (!frontier.empty() && seen.size() < 500) {
      Config cfg = std::move(frontier.front());
      frontier.pop_front();
      const auto fresh_vec = cfg.encode();
      scratch.clear();
      cfg.encode_into(scratch);
      EXPECT_EQ(scratch, fresh_vec) << test.name;
      // encode_into appends: a second call must yield the concatenation.
      cfg.encode_into(scratch);
      ASSERT_EQ(scratch.size(), 2 * fresh_vec.size()) << test.name;
      EXPECT_TRUE(std::equal(fresh_vec.begin(), fresh_vec.end(),
                             scratch.begin() + static_cast<std::ptrdiff_t>(
                                                   fresh_vec.size())))
          << test.name;
      if (!seen.insert(fresh_vec).second) continue;
      for (auto& step : lang::successors(test.sys, cfg)) {
        frontier.push_back(std::move(step.after));
      }
    }
  }
}

TEST(StateRepr, PooledSuccessorsMatchVectorSuccessors) {
  lang::StepBuffer buf;  // deliberately reused across states, tests and modes
  for (const bool want_labels : {true, false}) {
    for (auto& test : litmus::all_tests()) {
      std::deque<Config> frontier;
      std::set<std::vector<std::uint64_t>> seen;
      frontier.push_back(lang::initial_config(test.sys));
      std::size_t n = 0;
      while (!frontier.empty() && seen.size() < 300) {
        Config cfg = std::move(frontier.front());
        frontier.pop_front();
        if (!seen.insert(cfg.encode()).second) continue;
        const auto fresh = lang::successors(test.sys, cfg, want_labels);
        lang::successors(test.sys, cfg, buf, want_labels);
        ASSERT_EQ(buf.size(), fresh.size()) << test.name;
        for (std::size_t i = 0; i < fresh.size(); ++i) {
          auto& pooled = buf.steps()[i];
          EXPECT_EQ(pooled.thread, fresh[i].thread) << test.name;
          EXPECT_EQ(pooled.label, fresh[i].label) << test.name;
          EXPECT_EQ(pooled.after.encode(), fresh[i].after.encode())
              << test.name;
          // Mix the drivers' three fates for a slot before the next refill:
          // left in place (a duplicate encoded in place), moved out and
          // handed back (a duplicate found after a move), or moved out for
          // good (an enqueued state; the slot is rebuilt on reuse).
          switch (n++ % 3) {
            case 0:
              break;
            case 1: {
              Config out = std::move(pooled.after);
              pooled.after = std::move(out);
              break;
            }
            default: {
              Config gone = std::move(pooled.after);
              (void)gone;
              break;
            }
          }
        }
        for (const auto& step : fresh) frontier.push_back(step.after);
      }
    }
  }
}

/// One visited-set flavour under test, driven through its PackedWords entry
/// point.  `offer` returns the set's novelty verdict and, for the forms that
/// resolve duplicates, the id the sequence resolved to (kNoState otherwise).
struct SetUnderTest {
  std::string name;
  std::function<std::pair<bool, std::uint64_t>(const PackedWords&)> offer;
  bool resolves = false;  ///< duplicates report the first insert's id
};

std::vector<SetUnderTest> every_set_flavour() {
  std::vector<SetUnderTest> out;
  const auto no_id = ShardedVisitedSet::kNoState;
  {
    auto set = std::make_shared<InternedWordSet>();
    out.push_back({"interned.insert",
                   [set, no_id](const PackedWords& k) {
                     return std::pair{set->insert(k), no_id};
                   },
                   false});
  }
  {
    auto set = std::make_shared<InternedWordSet>();
    out.push_back({"interned.resolve_ided",
                   [set](const PackedWords& k) {
                     const auto r = set->resolve_ided(k);
                     return std::pair{r.inserted, std::uint64_t{r.id}};
                   },
                   true});
  }
  for (const unsigned shards : {1U, 64U}) {
    const std::string tag = "sharded(" + std::to_string(shards) + ").";
    {
      auto set = std::make_shared<ShardedVisitedSet>(shards);
      out.push_back({tag + "insert",
                     [set, no_id](const PackedWords& k) {
                       return std::pair{set->insert(k), no_id};
                     },
                     false});
    }
    {
      auto set = std::make_shared<ShardedVisitedSet>(shards);
      out.push_back({tag + "insert_traced",
                     [set](const PackedWords& k) {
                       const auto r =
                           set->insert_traced(k, ShardedVisitedSet::kNoState,
                                              0, std::string{"step"});
                       return std::pair{r.inserted, r.id};
                     },
                     false});
    }
    {
      auto set = std::make_shared<ShardedVisitedSet>(shards);
      out.push_back({tag + "resolve_traced",
                     [set](const PackedWords& k) {
                       const auto r =
                           set->resolve_traced(k, ShardedVisitedSet::kNoState,
                                               0, std::string{"step"});
                       return std::pair{r.inserted, r.id};
                     },
                     true});
    }
    {
      auto set = std::make_shared<ShardedVisitedSet>(shards);
      out.push_back({tag + "insert_masked",
                     [set, no_id](const PackedWords& k) {
                       return std::pair{set->insert_masked(k, 0).inserted,
                                        no_id};
                     },
                     false});
    }
  }
  {
    auto set = std::make_shared<SeqMaskedSet>();
    out.push_back({"seq_masked",
                   [set, no_id](const PackedWords& k) {
                     return std::pair{set->insert_masked(k, 0).inserted, no_id};
                   },
                   false});
  }
  return out;
}

TEST(StateRepr, ForcedDigestCollisionsStayExact) {
  // Adversarial digests: every sequence claims the same fingerprint (and so
  // the same shard and home slot), so novelty must be decided by the stored
  // encodings alone — in every set flavour.
  const std::vector<std::vector<std::uint64_t>> seqs = {
      {}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {1ULL << 40}, {0x7f}, {0x80},
      {0x7f, 0x80}, {~0ULL}, {~0ULL, ~0ULL},
  };
  std::vector<PackedWords> keys;
  for (const auto& words : seqs) {
    keys.emplace_back(words);
    keys.back().set_digest_for_testing(0xdeadbeefULL);
  }
  for (auto& set : every_set_flavour()) {
    std::vector<std::uint64_t> ids;
    for (const auto& k : keys) {
      const auto [fresh, id] = set.offer(k);
      EXPECT_TRUE(fresh) << set.name;
      ids.push_back(id);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto [fresh, id] = set.offer(keys[i]);
      EXPECT_FALSE(fresh) << set.name << " seq " << i;
      if (set.resolves) EXPECT_EQ(id, ids[i]) << set.name << " seq " << i;
    }
  }
  InternedWordSet plain;
  for (const auto& k : keys) plain.insert(k);
  EXPECT_EQ(plain.size(), keys.size());
  for (const auto& k : keys) EXPECT_TRUE(plain.contains(k));
}

TEST(StateRepr, RandomizedInsertsMatchOracle) {
  std::mt19937_64 rng(0xc0ffee);  // fixed seed: reproducible
  std::map<std::vector<std::uint64_t>, std::size_t> oracle;  // -> first round
  auto sets = every_set_flavour();
  std::vector<std::vector<std::uint64_t>> first_ids(sets.size());
  InternedWordSet by_words;  // the words entry point packs internally
  PackedWords key;           // one reused key, as the drivers reuse theirs
  for (int round = 0; round < 20'000; ++round) {
    std::vector<std::uint64_t> words(rng() % 12);
    for (auto& w : words) {
      // Mix tiny values (one varint byte) with full-width ones so every
      // varint length is exercised.
      const auto shift = rng() % 64;
      w = rng() >> shift;
    }
    const auto [it, fresh] = oracle.emplace(words, oracle.size());
    ASSERT_EQ(by_words.insert(words), fresh) << "round " << round;
    key.assign(words);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const auto [inserted, id] = sets[s].offer(key);
      ASSERT_EQ(inserted, fresh) << sets[s].name << " round " << round;
      if (fresh) {
        first_ids[s].push_back(id);
      } else if (sets[s].resolves) {
        ASSERT_EQ(id, first_ids[s][it->second])
            << sets[s].name << " round " << round;
      }
    }
  }
  EXPECT_EQ(by_words.size(), oracle.size());
  for (const auto& [words, order] : oracle) {
    EXPECT_TRUE(by_words.contains(words));
  }
}

// --- seeded states reached again as successors ------------------------------

/// Thread t1 loops forever flipping a register, so the initial state (and
/// every state of the loop) is reached again as a successor; t2's release
/// write and acquire read give the memory state some branching.
constexpr const char* kLoopingProgram = R"(
var x = 0;
var y = 0;
thread t1 {
  reg r;
  while (r == r) { r := 1 - r; }
}
thread t2 {
  reg a;
  x :=R 1;
  a <-A y;
}
thread t3 {
  reg b;
  y :=R 2;
  b <-A x;
}
)";

std::size_t oracle_state_count(const System& sys) {
  std::set<std::vector<std::uint64_t>> seen;
  std::deque<Config> frontier;
  Config init = lang::initial_config(sys);
  seen.insert(init.encode());
  frontier.push_back(std::move(init));
  while (!frontier.empty()) {
    Config cfg = std::move(frontier.front());
    frontier.pop_front();
    for (auto& step : lang::successors(sys, cfg)) {
      if (seen.insert(step.after.encode()).second) {
        frontier.push_back(std::move(step.after));
      }
    }
  }
  return seen.size();
}

TEST(StateRepr, SeededStatesReachedAgainMatchOracle) {
  const auto program = parser::parse_program(kLoopingProgram);
  const std::size_t expected = oracle_state_count(program.sys);
  ASSERT_GT(expected, 20u);
  for (const bool traced : {false, true}) {
    for (const unsigned threads : {1U, 4U}) {
      const std::string what = std::string(traced ? "traced" : "untraced") +
                               " threads=" + std::to_string(threads);
      explore::ExploreOptions opts;
      opts.num_threads = threads;
      opts.track_traces = traced;
      const auto full = explore::explore(program.sys, opts);
      EXPECT_EQ(full.stop, engine::StopReason::Complete) << what;
      EXPECT_EQ(full.stats.states, expected) << what;

      // Interrupt, checkpoint, resume: every checkpointed state is seeded
      // and then reached again from the resumed frontier.
      const std::string path = ::testing::TempDir() + "state_repr_seed_" +
                               (traced ? "t" : "u") + std::to_string(threads) +
                               ".json";
      explore::ExploreOptions trunc = opts;
      trunc.max_states = expected / 3;
      trunc.checkpoint_path = path;
      const auto cut = explore::explore(program.sys, trunc);
      EXPECT_NE(cut.stop, engine::StopReason::Complete) << what;
      const auto ckpt = engine::load_checkpoint(path);
      std::remove(path.c_str());
      explore::ExploreOptions resume = opts;
      resume.resume = &ckpt;
      const auto resumed = explore::explore(program.sys, resume);
      EXPECT_EQ(resumed.stop, engine::StopReason::Complete) << what;
      EXPECT_EQ(resumed.stats.states, expected) << what << " (resumed)";
    }
  }
}


// --- Wire form (Config::encode_wire / decode_wire) ----------------------------

/// Every tools/programs/*.rc11, in name order.
std::vector<std::string> corpus_programs() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RC11_SRC_DIR) + "/tools/programs")) {
    if (entry.path().extension() == ".rc11") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The four semantics the wire form must invert: the default, race
/// detection (clock block), the SC baseline and raw timestamps (no trailer).
std::vector<std::pair<std::string, memsem::SemanticsOptions>>
wire_semantics(const memsem::SemanticsOptions& base) {
  std::vector<std::pair<std::string, memsem::SemanticsOptions>> out;
  out.emplace_back("default", base);
  auto race = base;
  race.race_detection = true;
  out.emplace_back("race", race);
  auto sc = base;
  sc.model = memsem::MemoryModel::SC;
  out.emplace_back("sc", sc);
  auto raw = base;
  raw.canonical_timestamps = false;
  out.emplace_back("raw-timestamps", raw);
  return out;
}

/// Breadth-first walk over at most `cap` distinct states of `sys`, calling
/// `check` on each.
void walk_states(const System& sys, std::size_t cap,
                 const std::function<void(const Config&)>& check) {
  std::set<std::vector<std::uint64_t>> seen;
  std::deque<Config> frontier;
  frontier.push_back(lang::initial_config(sys));
  while (!frontier.empty() && seen.size() < cap) {
    Config cfg = std::move(frontier.front());
    frontier.pop_front();
    if (!seen.insert(cfg.encode()).second) continue;
    check(cfg);
    for (auto& step : lang::successors(sys, cfg)) {
      frontier.push_back(std::move(step.after));
    }
  }
}

std::vector<std::uint64_t> wire_of(const Config& cfg) {
  std::vector<std::uint64_t> words;
  cfg.encode_wire(words);
  return words;
}

TEST(StateRepr, WireFormRoundTripsOverCorpus) {
  std::size_t checked = 0;
  for (const auto& path : corpus_programs()) {
    auto program = parser::parse_file(path);
    for (const auto& [sem_name, sem] :
         wire_semantics(program.sys.options())) {
      program.sys.set_options(sem);
      const System& sys = program.sys;
      const std::string what = path + " / " + sem_name;
      const bool raw_timestamps = !sem.canonical_timestamps;
      walk_states(sys, 400, [&](const Config& cfg) {
        std::vector<std::uint64_t> words;
        const std::size_t canonical = cfg.encode_wire(words);
        const auto enc = cfg.encode();
        ASSERT_EQ(canonical, enc.size()) << what;
        ASSERT_TRUE(std::equal(enc.begin(), enc.end(), words.begin()))
            << what << ": the canonical encoding is not a prefix";
        if (raw_timestamps) {
          EXPECT_EQ(words.size(), enc.size()) << what << ": stray trailer";
        }
        const Config back = Config::decode_wire(sys, words);
        ASSERT_EQ(wire_of(back), words) << what;
        EXPECT_EQ(back.encode(), enc) << what;
        EXPECT_EQ(back.to_string(sys), cfg.to_string(sys)) << what;
        const auto want = lang::successors(sys, cfg, /*want_labels=*/true);
        const auto got = lang::successors(sys, back, /*want_labels=*/true);
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].thread, want[i].thread) << what;
          EXPECT_EQ(got[i].label, want[i].label) << what;
          EXPECT_EQ(wire_of(got[i].after), wire_of(want[i].after)) << what;
        }
        checked += 1;
      });
    }
  }
  EXPECT_GT(checked, 1000u);
}

/// Decodes `hex` the way a worker does and reports whether the result
/// could be mistaken for the state digested as `digest`: a decode error is
/// a clean rejection, and so is a state whose re-encoded wire form digests
/// differently.  Anything else escaping (another exception type, a crash
/// under the sanitizers) fails the test.
bool passes_digest_check(const System& sys, std::string_view hex,
                         std::uint64_t digest) {
  try {
    std::vector<std::uint64_t> words;
    engine::wire::words_from_hex(hex, words);
    const Config cfg = Config::decode_wire(sys, words);
    const auto again = wire_of(cfg);
    EXPECT_EQ(again, words) << "decode accepted a form it does not re-encode";
    return support::hash_words(again) == digest;
  } catch (const support::Error&) {
    return false;
  }
}

TEST(StateRepr, HostileWireInputFailsCleanly) {
  for (const char* name : {"mp_stack.rc11", "ticket_lock.rc11", "sb.rc11"}) {
    auto program = parser::parse_file(prog(name));
    for (const auto& [sem_name, sem] :
         wire_semantics(program.sys.options())) {
      program.sys.set_options(sem);
      const System& sys = program.sys;
      const std::string what = std::string(name) + " / " + sem_name;
      // A deep state: the last one of a short walk.
      std::optional<Config> deep;
      walk_states(sys, 60, [&](const Config& cfg) { deep = cfg; });
      ASSERT_TRUE(deep.has_value());
      const auto words = wire_of(*deep);
      const std::string hex = engine::wire::words_hex(words);
      const std::uint64_t digest = support::hash_words(words);
      ASSERT_TRUE(passes_digest_check(sys, hex, digest)) << what;

      for (std::size_t len = 0; len < hex.size(); ++len) {
        EXPECT_FALSE(passes_digest_check(sys, hex.substr(0, len), digest))
            << what << ": truncated to " << len;
      }
      for (const char* tail : {"0", "00", "01", "7f", "80", "8001", "ff01"}) {
        EXPECT_FALSE(passes_digest_check(sys, hex + tail, digest))
            << what << ": extended by " << tail;
      }
      for (std::size_t i = 0; i < hex.size(); ++i) {
        for (const char sub : std::string("0123456789abcdefABCDEFx ")) {
          if (sub == hex[i]) continue;
          std::string bad = hex;
          bad[i] = sub;
          EXPECT_FALSE(passes_digest_check(sys, bad, digest))
              << what << ": digit " << i << " -> " << sub;
        }
      }

      // Planted out-of-range fields, at word offsets read off the layout:
      // pcs, then each register file (size first), then the memory state
      // (per location: op count, then per op tag/value/read value and, with
      // raw timestamps, the timestamp), then the thread-view ranks.
      const std::size_t nthreads = sys.num_threads();
      std::size_t mem_at = nthreads;
      for (lang::ThreadId t = 0; t < nthreads; ++t) {
        mem_at += 1 + sys.num_regs(t);
      }
      const std::size_t per_op = sem.canonical_timestamps ? 3 : 5;
      std::size_t views_at = mem_at;
      for (std::size_t loc = 0; loc < sys.locations().size(); ++loc) {
        views_at += 1 + words[views_at] * per_op;
      }
      const std::size_t tag_at = mem_at + 1;
      const auto planted = [&](std::size_t at, std::uint64_t value,
                               const char* field) {
        auto bad = words;
        bad[at] = value;
        EXPECT_THROW((void)Config::decode_wire(sys, bad), support::Error)
            << what << ": " << field;
      };
      planted(0, sys.code(0).size() + 1, "pc past the code");
      planted(nthreads, sys.num_regs(0) + 1, "register count");
      planted(mem_at, 0, "empty location");
      planted(mem_at, std::uint64_t{1} << 62, "huge op count");
      planted(tag_at, (words[tag_at] & ~0xffULL) | 0x09, "op kind");
      planted(tag_at, (words[tag_at] & ~0xffULL) | 0xff, "op kind");
      planted(tag_at, (words[tag_at] & 0xffULL) | (nthreads << 8),
              "thread id");
      planted(tag_at, words[tag_at] | (1ULL << 42), "stray tag bits");
      planted(views_at, words[mem_at], "thread view rank");
      planted(views_at, ~0ULL, "thread view rank");
      if (sem.canonical_timestamps) {
        planted(words.size() - 1, 0, "zero denominator");
        auto unreduced = words;
        unreduced[words.size() - 2] = 2;
        unreduced[words.size() - 1] = 2;
        EXPECT_THROW((void)Config::decode_wire(sys, unreduced), support::Error)
            << what << ": timestamp not in lowest terms";
        planted(words.size() - 1, ~0ULL, "negative denominator");
      } else {
        planted(tag_at + 4, 0, "zero denominator");
      }
      auto shorter = words;
      shorter.pop_back();
      EXPECT_THROW((void)Config::decode_wire(sys, shorter), support::Error)
          << what;
      auto longer = words;
      longer.push_back(0);
      EXPECT_THROW((void)Config::decode_wire(sys, longer), support::Error)
          << what;
    }
  }
}

TEST(StateRepr, PackedHexIsStrict) {
  std::vector<std::uint64_t> out;
  const std::vector<std::uint64_t> words = {0,   1,    127, 128,
                                            300, ~0ULL, 1ULL << 63};
  const std::string hex = engine::wire::words_hex(words);
  EXPECT_EQ(hex.substr(0, 10), "00017f8001");
  engine::wire::words_from_hex(hex, out);
  EXPECT_EQ(out, words);
  // Same bytes as the visited sets' PackedWords serialisation.
  const PackedWords packed(words);
  std::string from_packed;
  for (const std::uint8_t b : packed.bytes()) {
    constexpr char kDigits[] = "0123456789abcdef";
    from_packed.push_back(kDigits[b >> 4]);
    from_packed.push_back(kDigits[b & 0xf]);
  }
  EXPECT_EQ(hex, from_packed);
  engine::wire::words_from_hex("", out);
  EXPECT_TRUE(out.empty());
  for (const char* bad : {"0", "0x01", "0A", "80", "8000", "ff",
                          "ffffffffffffffffff02", "ffffffffffffffffff8001",
                          "zz"}) {
    EXPECT_THROW(engine::wire::words_from_hex(bad, out), support::Error)
        << bad;
  }
}

}  // namespace
