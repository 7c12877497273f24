// Experiment F6 (microbenchmarks): the state-representation hot path in
// isolation — canonical encoding with and without buffer reuse, visited-set
// insertion into the interned arena layout versus the former
// unordered_map-of-vectors layout, and successor generation with pooled
// versus freshly allocated Steps.  The macro numbers (states/s, bytes/state
// on whole explorations) live in bench_semantics_throughput; this file
// attributes them to the individual mechanisms.

#include <benchmark/benchmark.h>

#include <span>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11;

/// Every reachable configuration of `sys`, collected once per benchmark so
/// the timed loops run over a realistic mix of states (not just the root).
std::vector<lang::Config> reachable_configs(const lang::System& sys) {
  std::vector<lang::Config> out;
  const auto reach = engine::visit_reachable(
      sys, engine::ReachOptions{},
      [&](const lang::Config& cfg, std::uint64_t, std::span<const lang::Step>) {
        out.push_back(cfg);
        return true;
      });
  benchmark::DoNotOptimize(reach.stats.states);
  return out;
}

lang::System ticket_system(unsigned threads, unsigned rounds) {
  locks::TicketLock lock;
  return locks::instantiate(locks::mgc_client(threads, rounds), lock);
}

/// The pre-PR visited-set layout, replicated here as the baseline: a digest
/// index over per-state heap-allocated encoding vectors.  Kept only for the
/// comparison — production code uses support::InternedWordSet.
class LegacyVisitedSet {
 public:
  bool insert(const std::vector<std::uint64_t>& enc) {
    auto& bucket = index_[support::hash_words(enc)];
    for (const auto idx : bucket) {
      if (storage_[idx] == enc) return false;
    }
    bucket.push_back(storage_.size());
    storage_.push_back(enc);
    return true;
  }

  /// Heap footprint, counted generously *low* (node/allocator overhead of
  /// the unordered_map is approximated by its value payloads only), so the
  /// reported ratio against InternedWordSet::bytes() is a lower bound.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t b = storage_.capacity() * sizeof(std::vector<std::uint64_t>);
    for (const auto& v : storage_) b += v.capacity() * sizeof(std::uint64_t);
    b += index_.bucket_count() * sizeof(void*);
    for (const auto& [digest, bucket] : index_) {
      b += sizeof(digest) + sizeof(bucket) + sizeof(void*) +
           bucket.capacity() * sizeof(std::size_t);
    }
    return b;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  std::vector<std::vector<std::uint64_t>> storage_;
};

// --- encoding: fresh vector per state vs reused scratch buffer --------------

void BM_EncodeFresh(benchmark::State& state) {
  const auto cfgs = reachable_configs(ticket_system(2, 2));
  for (auto _ : state) {
    std::uint64_t words = 0;
    for (const auto& cfg : cfgs) {
      const auto enc = cfg.encode();
      words += enc.size();
    }
    benchmark::DoNotOptimize(words);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfgs.size()));
}
BENCHMARK(BM_EncodeFresh);

void BM_EncodeInto(benchmark::State& state) {
  const auto cfgs = reachable_configs(ticket_system(2, 2));
  std::vector<std::uint64_t> scratch;
  for (auto _ : state) {
    std::uint64_t words = 0;
    for (const auto& cfg : cfgs) {
      scratch.clear();
      cfg.encode_into(scratch);
      words += scratch.size();
    }
    benchmark::DoNotOptimize(words);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfgs.size()));
}
BENCHMARK(BM_EncodeInto);

// --- visited set: interned arena vs legacy map-of-vectors -------------------

std::vector<std::vector<std::uint64_t>> all_encodings(const lang::System& sys) {
  std::vector<std::vector<std::uint64_t>> encs;
  for (const auto& cfg : reachable_configs(sys)) encs.push_back(cfg.encode());
  return encs;
}

void BM_VisitedInsertInterned(benchmark::State& state) {
  const auto encs = all_encodings(ticket_system(2, 2));
  for (auto _ : state) {
    support::InternedWordSet set;
    for (const auto& enc : encs) set.insert(enc);
    // Second pass: every lookup is a hit (the explorer's steady state).
    for (const auto& enc : encs) benchmark::DoNotOptimize(set.insert(enc));
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * encs.size()));
}
BENCHMARK(BM_VisitedInsertInterned);

void BM_VisitedInsertLegacy(benchmark::State& state) {
  const auto encs = all_encodings(ticket_system(2, 2));
  for (auto _ : state) {
    LegacyVisitedSet set;
    for (const auto& enc : encs) set.insert(enc);
    for (const auto& enc : encs) benchmark::DoNotOptimize(set.insert(enc));
    benchmark::DoNotOptimize(set.bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * encs.size()));
}
BENCHMARK(BM_VisitedInsertLegacy);

// --- successor generation: pooled StepBuffer vs fresh vectors ---------------

void BM_SuccessorsVector(benchmark::State& state) {
  const auto sys = ticket_system(2, 2);
  const auto cfgs = reachable_configs(sys);
  for (auto _ : state) {
    std::uint64_t steps = 0;
    for (const auto& cfg : cfgs) {
      steps += lang::successors(sys, cfg).size();
    }
    benchmark::DoNotOptimize(steps);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfgs.size()));
}
BENCHMARK(BM_SuccessorsVector);

void BM_SuccessorsPooled(benchmark::State& state) {
  const auto sys = ticket_system(2, 2);
  const auto cfgs = reachable_configs(sys);
  lang::StepBuffer buf;
  for (auto _ : state) {
    std::uint64_t steps = 0;
    for (const auto& cfg : cfgs) {
      lang::successors(sys, cfg, buf);
      steps += buf.size();
    }
    benchmark::DoNotOptimize(steps);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfgs.size()));
}
BENCHMARK(BM_SuccessorsPooled);

// --- bytes/state: one verdict line comparing the two layouts ----------------

void report_bytes_per_state(rc11::bench::JsonReport& json) {
  const auto sys = ticket_system(2, 2);
  const auto encs = all_encodings(sys);
  support::InternedWordSet interned;
  LegacyVisitedSet legacy;
  for (const auto& enc : encs) {
    interned.insert(enc);
    legacy.insert(enc);
  }
  const auto n = static_cast<double>(encs.size());
  const double interned_bps = static_cast<double>(interned.bytes()) / n;
  const double legacy_bps = static_cast<double>(legacy.bytes()) / n;
  const double ratio = legacy_bps / interned_bps;
  std::ostringstream detail;
  detail << "ticket mgc(2,2), " << encs.size()
         << " states: interned visited set " << interned.bytes() << " B ("
         << interned_bps << " B/state, payload "
         << static_cast<double>(interned.arena_bytes()) / n
         << " B/state), legacy map-of-vectors layout >= " << legacy.bytes()
         << " B (" << legacy_bps << " B/state) — " << ratio << "x smaller";
  rc11::bench::verdict("F6-micro", ratio >= 2.0, detail.str());
  json.add("visited_bytes_per_state",
           {{"states", n},
            {"interned_bytes_per_state", interned_bps},
            {"legacy_bytes_per_state", legacy_bps},
            {"reduction_ratio", ratio}});
}

}  // namespace

int main(int argc, char** argv) {
  rc11::bench::JsonReport json;
  json.parse_args(argc, argv);
  report_bytes_per_state(json);
  if (!json.write("bench_state_repr")) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
