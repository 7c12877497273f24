#include "engine/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "support/diagnostics.hpp"

namespace rc11::engine::wire {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
/// kCrcTables[k][b] advances the CRC of byte b followed by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t read_le32(const char* p) noexcept {
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

void append_le32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// Value of a lowercase hex digit, or -1.
int hex_value(char ch) noexcept {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  return -1;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = read_le32(p) ^ c;
    const std::uint32_t hi = read_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(std::string_view payload) {
  support::require(payload.size() <= kMaxFramePayload,
                   "wire frame payload of ", payload.size(),
                   " bytes exceeds the ", kMaxFramePayload, "-byte cap");
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof kMagic);
  append_le32(out, static_cast<std::uint32_t>(payload.size()));
  append_le32(out, crc32(payload));
  out.append(payload);
  return out;
}

char* FrameReader::prepare(std::size_t n) {
  if (begin_ == end_) begin_ = end_ = 0;
  if (buf_.size() - end_ < n) {
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < n) {
      buf_.resize(std::max(end_ + n, 2 * buf_.size()));
    }
  }
  return buf_.data() + end_;
}

FrameReader::Status FrameReader::next(std::string_view& payload,
                                      std::string& error) {
  if (corrupt_) {
    error = error_;
    return Status::Corrupt;
  }
  const auto poison = [&](std::string why) {
    corrupt_ = true;
    error_ = std::move(why);
    error = error_;
    return Status::Corrupt;
  };
  if (end_ - begin_ < kHeaderBytes) return Status::NeedMore;
  const char* head = buf_.data() + begin_;
  if (std::string_view(head, sizeof kMagic) !=
      std::string_view(kMagic, sizeof kMagic)) {
    return poison("bad frame magic (stream out of sync)");
  }
  const std::uint32_t len = read_le32(head + 4);
  if (len > kMaxFramePayload) {
    return poison(support::concat("frame length ", len, " exceeds the ",
                                  kMaxFramePayload, "-byte cap"));
  }
  if (end_ - begin_ < kHeaderBytes + len) return Status::NeedMore;
  const std::uint32_t want = read_le32(head + 8);
  const std::string_view body(head + kHeaderBytes, len);
  const std::uint32_t got = crc32(body);
  if (got != want) {
    return poison(support::concat("frame CRC mismatch: header says ", want,
                                  ", payload hashes to ", got));
  }
  payload = body;
  begin_ += kHeaderBytes + len;
  return Status::Frame;
}

std::string words_hex(std::span<const std::uint64_t> words) {
  std::string out;
  out.reserve(words.size() * 4);
  const auto byte = [&](unsigned b) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xFu]);
  };
  for (std::uint64_t w : words) {
    while (w >= 0x80) {
      byte(static_cast<unsigned>(w & 0x7Fu) | 0x80u);
      w >>= 7;
    }
    byte(static_cast<unsigned>(w));
  }
  return out;
}

void words_from_hex(std::string_view hex, std::vector<std::uint64_t>& out) {
  out.clear();
  support::require(hex.size() % 2 == 0, "packed words: odd hex length ",
                   hex.size());
  std::uint64_t word = 0;
  unsigned shift = 0;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    support::require(hi >= 0 && lo >= 0,
                     "packed words: not a lowercase hex digit at offset ", i);
    const auto b = static_cast<std::uint64_t>((hi << 4) | lo);
    // The tenth byte of a varint carries bit 63 alone.
    support::require(shift < 63 || b <= 1, "packed words: varint overflows",
                     " 64 bits at offset ", i);
    word |= (b & 0x7Fu) << shift;
    if ((b & 0x80u) != 0) {
      shift += 7;
      continue;
    }
    support::require(b != 0 || shift == 0,
                     "packed words: non-minimal varint at offset ", i);
    out.push_back(word);
    word = 0;
    shift = 0;
  }
  support::require(shift == 0, "packed words: truncated varint");
}

}  // namespace rc11::engine::wire
