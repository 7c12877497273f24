// Tests for interning, hashing and diagnostics helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11::support;

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  const auto a = t.intern("x");
  const auto b = t.intern("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("x"), a);
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTable, LookupAndNames) {
  SymbolTable t;
  const auto a = t.intern("alpha");
  EXPECT_EQ(t.lookup("alpha"), a);
  EXPECT_EQ(t.lookup("beta"), kInvalidSymbol);
  EXPECT_EQ(t.name(a), "alpha");
  EXPECT_TRUE(t.contains("alpha"));
  EXPECT_FALSE(t.contains("beta"));
}

TEST(SymbolTable, DenseIds) {
  SymbolTable t;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(t.intern("s" + std::to_string(i)), static_cast<SymbolId>(i));
  }
}

TEST(Hash, CombineChangesSeed) {
  std::size_t seed = 0;
  hash_combine(seed, 42);
  EXPECT_NE(seed, 0u);
  std::size_t seed2 = 0;
  hash_combine(seed2, 43);
  EXPECT_NE(seed, seed2);
}

TEST(Hash, SignedRoundTrip) {
  // Registers hold signed values; the encoding stores them as two's
  // complement words, so -1 must digest, pack and decode as ~0.
  const std::vector<std::uint64_t> neg{static_cast<std::uint64_t>(std::int64_t{-1})};
  const std::vector<std::uint64_t> ones{0xffffffffffffffffULL};
  EXPECT_EQ(hash_words(neg), hash_words(ones));
  EXPECT_EQ(PackedWords(neg).digest(), PackedWords(ones).digest());
  InternedWordSet set;
  ASSERT_TRUE(set.insert_ided(neg).inserted);
  std::vector<std::uint64_t> back;
  set.decode(0, back);
  EXPECT_EQ(back, ones);
}

TEST(Hash, DigestBytesOrderAndLengthSensitive) {
  const std::vector<std::uint8_t> ab{1, 2};
  const std::vector<std::uint8_t> ba{2, 1};
  const std::vector<std::uint8_t> ab0{1, 2, 0};
  EXPECT_NE(digest_bytes(ab), digest_bytes(ba));
  // The zero-padded tail chunk must not make a trailing zero byte vanish.
  EXPECT_NE(digest_bytes(ab), digest_bytes(ab0));
  std::vector<std::uint8_t> long_bytes(37);
  for (std::size_t i = 0; i < long_bytes.size(); ++i) {
    long_bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto d = digest_bytes(long_bytes);
  EXPECT_EQ(d, digest_bytes(long_bytes));
  long_bytes[33] ^= 1;  // a byte in the partial last chunk
  EXPECT_NE(d, digest_bytes(long_bytes));
}

TEST(Hash, PackedWordsAreVarintsDigestedAsBytes) {
  const std::vector<std::uint64_t> words{0, 0x7f, 0x80, 300};
  PackedWords key;
  key.assign(std::vector<std::uint64_t>(64, ~0ULL));  // warm, larger buffer
  key.assign(words);
  const std::vector<std::uint8_t> expect{0x00, 0x7f, 0x80, 0x01, 0xac, 0x02};
  ASSERT_EQ(key.size(), expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), key.bytes().begin()));
  EXPECT_EQ(key.digest(), digest_bytes(expect));
  const PackedWords empty{std::span<const std::uint64_t>{}};
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.digest(), digest_bytes({}));
}

TEST(Diagnostics, RequirePassesAndFails) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "value was ", 42), Error);
  try {
    require(false, "value was ", 42);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "value was 42");
  }
}

TEST(Diagnostics, InternalInvariantMacro) {
  EXPECT_NO_THROW(RC11_REQUIRE(1 + 1 == 2, "arithmetic"));
  EXPECT_THROW(RC11_REQUIRE(false, "broken"), InternalError);
}

TEST(Diagnostics, ConcatFormatsPieces) {
  EXPECT_EQ(concat("a", 1, "b", 2.5), "a1b2.5");
}

}  // namespace
