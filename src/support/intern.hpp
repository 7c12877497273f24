// rc11lib/support/intern.hpp
//
// Interning utilities.
//
//   * SymbolTable — string interning for program identifiers (global
//     variables, registers, objects, method names).  The semantics engine
//     works exclusively with dense integer ids; names are kept only for
//     diagnostics and pretty-printing.
//
//   * PackedWords — the key every interned set probes with: a word
//     sequence's LEB128-varint serialisation plus digest_bytes over those
//     serialised bytes.  Serialising first and digesting the compact form
//     (most encoding words are tiny, so ~110 words pack into ~114 bytes)
//     costs one pointer-walking pass over the words and ~15 mix64 rounds,
//     where digesting the wide words alone cost ~110.  A reused PackedWords
//     only ever grows its buffer, so a warm key allocates nothing.
//
//   * InternedWordSet — the state-representation workhorse behind the
//     explorer's visited sets: a set of uint64 word sequences (canonical
//     state encodings) stored as an open-addressing fingerprint table over
//     an append-only byte arena holding exactly the PackedWords bytes.  No
//     per-state heap allocation (one flat table, one flat arena), and a
//     duplicate costs one serialisation, one digest and one memcmp.
//     Exactness is preserved: a fingerprint hit is only a duplicate after
//     the full stored encoding compares equal, so a digest collision can
//     never drop a genuinely new state.
//
// Every entry point of every interned set — InternedWordSet here, and
// ShardedVisitedSet / SeqMaskedSet in engine/sharded_visited.hpp — takes
// either a PackedWords or the words themselves, which it packs through
// PackedWords::assign.  There is no way to hand a set a digest computed any
// other way, so states seeded from an initial state or a checkpoint and the
// same states reached again as successors always meet in the same slot.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"

namespace rc11::support {

/// Dense id assigned by a SymbolTable.  Ids are table-local.
using SymbolId = std::uint32_t;

inline constexpr SymbolId kInvalidSymbol = UINT32_MAX;

/// Bidirectional name <-> dense-id map.  Not thread-safe by design: each
/// System (lang/program.hpp) owns its own tables, and exploration threads
/// never mutate them after construction.
class SymbolTable {
 public:
  /// Returns the id for `name`, interning it on first use.
  SymbolId intern(std::string_view name) {
    if (const auto it = ids_.find(std::string{name}); it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<SymbolId>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id for `name` if already interned, kInvalidSymbol otherwise.
  [[nodiscard]] SymbolId lookup(std::string_view name) const {
    const auto it = ids_.find(std::string{name});
    return it == ids_.end() ? kInvalidSymbol : it->second;
  }

  [[nodiscard]] const std::string& name(SymbolId id) const { return names_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const {
    return lookup(name) != kInvalidSymbol;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId> ids_;
};

/// A word sequence in the compact form the interned sets store and compare,
/// plus the digest they probe with (see the header comment).
class PackedWords {
 public:
  PackedWords() = default;
  explicit PackedWords(std::span<const std::uint64_t> words) { assign(words); }

  /// Serialises `words` (LEB128 varints, back to back) into the reused
  /// buffer and digests the result.
  void assign(std::span<const std::uint64_t> words) {
    const std::size_t worst = words.size() * kMaxVarintBytes;
    if (buf_.size() < worst) buf_.resize(worst);
    std::uint8_t* const begin = buf_.data();
    std::uint8_t* p = begin;
    for (std::uint64_t w : words) {
      while (w >= 0x80) {
        *p++ = static_cast<std::uint8_t>(w) | 0x80U;
        w >>= 7;
      }
      *p++ = static_cast<std::uint8_t>(w);
    }
    len_ = static_cast<std::size_t>(p - begin);
    digest_ = digest_bytes(bytes());
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data(), len_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  /// Heap bytes held by the serialisation buffer.
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

  /// Overwrites the digest of the packed sequence.  Tests use it to force
  /// fingerprint collisions between distinct sequences; nothing else should.
  void set_digest_for_testing(std::uint64_t digest) noexcept { digest_ = digest; }

 private:
  static constexpr std::size_t kMaxVarintBytes = 10;  // ceil(64 / 7)

  std::vector<std::uint8_t> buf_;  // sized for the worst case, only grows
  std::size_t len_ = 0;
  std::uint64_t digest_ = digest_bytes({});
};

/// An exact set of uint64 word sequences, interned into a flat arena.
///
/// Layout: an open-addressing (linear-probe) table of 16-byte entries
/// `(digest, offset | length)` plus one append-only byte arena holding the
/// PackedWords serialisation of every distinct sequence, back to back.
/// Membership is decided by digest first and confirmed by comparing the full
/// serialised sequence, so the set is exact for any digest.
///
/// Each operation comes in two forms: one taking a PackedWords (callers that
/// pack outside a lock, and tests forcing collisions) and one taking the
/// words, which packs them into the set's own reused key first.
///
/// Not thread-safe: the sharded visited set wraps one instance per shard
/// behind the shard mutex; sequential explorers use one instance directly.
class InternedWordSet {
 public:
  InternedWordSet() { table_.resize(kInitialSlots, Entry{0, kEmptySlot}); }

  /// Inserts the sequence, returning true iff it was not present before.
  bool insert(const PackedWords& key) {
    const std::size_t i = probe_for_insert(key);
    if (table_[i].off_len != kEmptySlot) return false;
    place(i, key);
    return true;
  }

  bool insert(std::span<const std::uint64_t> words) {
    scratch_.assign(words);
    return insert(scratch_);
  }

  /// Insert result with the dense id assigned to the sequence.  From
  /// insert_ided, `id` is only meaningful when `inserted` is true
  /// (exhaustive drivers never need a duplicate's id: a state re-entering
  /// the visited set never re-enters the frontier).
  struct IdedInsert {
    bool inserted = false;
    std::uint32_t id = 0;
  };

  /// Like insert(), but assigns the sequence a dense id (0, 1, 2, … in
  /// insertion order) and remembers its arena slot so the full encoding can
  /// be decoded back by id — the hook the witness subsystem's parent-link
  /// trace reconstruction hangs off.  A set must use either insert() or
  /// the ided forms exclusively; mixing would desynchronise the id → slot
  /// index (enforced below).
  IdedInsert insert_ided(const PackedWords& key) {
    return intern_ided(key, /*resolve=*/false);
  }

  IdedInsert insert_ided(std::span<const std::uint64_t> words) {
    scratch_.assign(words);
    return insert_ided(scratch_);
  }

  /// Like insert_ided(), but duplicates resolve to the id they were assigned
  /// when first interned instead of an invalid one.  The sampling engine
  /// needs this: episodes revisit states constantly, and a revisited state's
  /// id is the parent link for the next sampled step.  The matching entry's
  /// arena slot maps back to its id — slots_ stores off_len in id order and
  /// arena offsets are strictly increasing, so slots_ is sorted and the slot
  /// is binary-searchable.  Same exclusivity rule as insert_ided().
  IdedInsert resolve_ided(const PackedWords& key) {
    return intern_ided(key, /*resolve=*/true);
  }

  IdedInsert resolve_ided(std::span<const std::uint64_t> words) {
    scratch_.assign(words);
    return resolve_ided(scratch_);
  }

  /// Decodes the sequence with the given id (assigned by insert_ided) back
  /// into words, appending to `out`.
  void decode(std::uint32_t id, std::vector<std::uint64_t>& out) const {
    RC11_REQUIRE(id < slots_.size(), "decode: id out of range");
    const std::uint64_t off = slots_[id] >> kLenBits;
    const std::uint64_t len = slots_[id] & kMaxEncodedBytes;
    const std::uint8_t* p = arena_.data() + off;
    const std::uint8_t* end = p + len;
    while (p < end) {
      std::uint64_t w = 0;
      unsigned shift = 0;
      while (*p >= 0x80) {
        w |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
        shift += 7;
        ++p;
      }
      w |= static_cast<std::uint64_t>(*p) << shift;
      ++p;
      out.push_back(w);
    }
  }

  /// True iff the sequence is present (no mutation).
  [[nodiscard]] bool contains(const PackedWords& key) const {
    return table_[probe(key)].off_len != kEmptySlot;
  }

  [[nodiscard]] bool contains(std::span<const std::uint64_t> words) const {
    return contains(PackedWords(words));
  }

  /// Number of distinct sequences interned.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Heap footprint: arena + table + packing-key capacity (+ the id index
  /// when the ided forms are in use).  This is the figure reported as
  /// ExploreStats::visited_bytes.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return arena_.capacity() + table_.capacity() * sizeof(Entry) +
           scratch_.capacity() + slots_.capacity() * sizeof(std::uint64_t);
  }

  /// Bytes of compressed encoding payload (excludes table slack); exposed
  /// for the state-representation benchmarks.
  [[nodiscard]] std::size_t arena_bytes() const noexcept { return arena_.size(); }

 private:
  // offset:40 | length:24 packed into one word; kEmptySlot (all ones) is
  // unreachable because lengths are capped far below 2^24.
  static constexpr unsigned kLenBits = 24;
  static constexpr std::uint64_t kMaxEncodedBytes = (1ULL << kLenBits) - 1;
  static constexpr std::uint64_t kEmptySlot = ~0ULL;
  static constexpr std::size_t kInitialSlots = 16;  // power of two

  struct Entry {
    std::uint64_t digest;
    std::uint64_t off_len;
    [[nodiscard]] std::uint64_t offset() const noexcept {
      return off_len >> kLenBits;
    }
    [[nodiscard]] std::uint64_t length() const noexcept {
      return off_len & kMaxEncodedBytes;
    }
  };

  /// The one probe: the index of the entry holding `key`, or of the empty
  /// slot where it belongs.
  [[nodiscard]] std::size_t probe(const PackedWords& key) const {
    const std::uint64_t mask = table_.size() - 1;
    const std::uint64_t digest = key.digest();
    for (std::uint64_t i = digest & mask;; i = (i + 1) & mask) {
      const Entry& e = table_[i];
      if (e.off_len == kEmptySlot) return i;
      if (e.digest == digest && e.length() == key.size() &&
          (key.size() == 0 ||
           std::memcmp(arena_.data() + e.offset(), key.bytes().data(),
                       key.size()) == 0)) {
        return i;
      }
    }
  }

  /// probe() after making room for one more entry.
  std::size_t probe_for_insert(const PackedWords& key) {
    RC11_REQUIRE(key.size() < kMaxEncodedBytes,
                 "state encoding exceeds the interned-arena entry limit");
    if ((count_ + 1) * 4 >= table_.size() * 3) grow();
    return probe(key);
  }

  /// Appends `key` to the arena and records it in empty slot `i`.
  void place(std::size_t i, const PackedWords& key) {
    const std::uint64_t off = arena_.size();
    const auto bytes = key.bytes();
    arena_.insert(arena_.end(), bytes.begin(), bytes.end());
    table_[i] = Entry{key.digest(), (off << kLenBits) | key.size()};
    count_ += 1;
  }

  IdedInsert intern_ided(const PackedWords& key, bool resolve) {
    RC11_REQUIRE(slots_.size() == count_,
                 "ided insert on a set already used with plain insert");
    const std::size_t i = probe_for_insert(key);
    const std::uint64_t off_len = table_[i].off_len;
    if (off_len == kEmptySlot) {
      place(i, key);
      slots_.push_back(table_[i].off_len);
      return {true, static_cast<std::uint32_t>(count_ - 1)};
    }
    if (!resolve) return {false, 0};
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), off_len);
    RC11_REQUIRE(it != slots_.end() && *it == off_len,
                 "resolve_ided: interned slot missing from the id index");
    return {false,
            static_cast<std::uint32_t>(std::distance(slots_.begin(), it))};
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{0, kEmptySlot});
    const std::uint64_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.off_len == kEmptySlot) continue;
      std::uint64_t i = e.digest & mask;
      while (table_[i].off_len != kEmptySlot) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;          // open addressing, power-of-two size
  std::vector<std::uint8_t> arena_;   // varint payloads, back to back
  PackedWords scratch_;               // packing key for the word overloads
  std::vector<std::uint64_t> slots_;  // off_len by id (ided forms only)
  std::size_t count_ = 0;
};

}  // namespace rc11::support
