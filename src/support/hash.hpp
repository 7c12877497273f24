// rc11lib/support/hash.hpp
//
// Hash utilities.  One mixer, splitmix64's finaliser (mix64), feeds both
// digests in the library:
//
//   * hash_words — the digest of a word sequence (a canonical state
//     encoding).  It is persisted and exchanged: witness JSON names states by
//     it, and the supervised driver partitions the abstract-key space by it,
//     so its value is part of the file and wire formats and must not change.
//
//   * digest_bytes — the in-memory fingerprint the interned visited sets
//     probe with (support/intern.hpp).  It runs over the compact varint form
//     a set stores, roughly one eighth as many mix64 rounds as hash_words
//     over the wide words.  It is never written anywhere, so it is free to
//     depend on the host's byte order.
//
// Exactness of exploration never depends on either: every fingerprint hit is
// confirmed against the full stored encoding.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>

namespace rc11::support {

/// Mixes `value`'s hash into an accumulated seed (boost::hash_combine).
template <typename T>
constexpr void hash_combine(std::size_t& seed, const T& value) {
  seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// splitmix64 finaliser: a fast, full-avalanche 64-bit mixer (two
/// multiplications per call).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Digest of a word sequence via chained mix64 (Merkle–Damgård over the
/// splitmix64 finaliser, length-seeded so prefixes do not collide trivially).
/// The persisted state digest: see the header comment.
[[nodiscard]] constexpr std::uint64_t hash_words(
    std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ mix64(words.size());
  for (const auto w : words) h = mix64(h ^ w);
  return h;
}

/// Digest of a byte string, chaining mix64 over 8-byte chunks loaded in host
/// byte order (the last one zero-padded; the length seed keeps the padding
/// unambiguous).  All 64
/// output bits are well distributed: the sharded visited set routes shards
/// by the top bits and indexes open-addressing tables by the bottom bits of
/// the same digest.  In-memory only: see the header comment.
[[nodiscard]] inline std::uint64_t digest_bytes(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ mix64(bytes.size());
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, p, 8);
    h = mix64(h ^ chunk);
  }
  if (n != 0) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, p, n);
    h = mix64(h ^ chunk);
  }
  return h;
}

}  // namespace rc11::support
