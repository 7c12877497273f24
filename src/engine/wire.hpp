// rc11lib/engine/wire.hpp
//
// Length-prefixed frame codec for the supervised multi-process driver
// (engine/supervise.hpp).  Frontier batches and their acks travel over
// anonymous pipes between the supervisor and its worker processes; the
// payloads are the JSON records of docs/FORMAT.md ("Frontier-batch wire
// records"), and this layer wraps each payload in a self-validating frame so
// the supervisor can detect a corrupt, truncated or garbage stream *before*
// any of it influences a verdict:
//
//   offset  size  field
//   0       4     magic "RC5W"
//   4       4     payload length, u32 little-endian (<= kMaxFramePayload)
//   8       4     CRC-32 (IEEE 802.3) of the payload, u32 little-endian
//   12      len   payload bytes (UTF-8 JSON)
//
// A pipe is a byte stream: once one frame fails validation there is no
// reliable way to re-synchronise, so FrameReader is sticky-corrupt — the
// supervisor's only sound response is to kill the worker, restart it and
// resend the unacknowledged batch (engine/supervise.cpp does exactly that).
//
// Word sequences inside a payload (state wire forms, successor encodings,
// abstraction keys) travel as one lowercase hex string of their LEB128
// bytes, the support::PackedWords layout.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rc11::engine::wire {

/// Frame magic: "RC5W" (rc11 wire; the digit is bumped with the schema,
/// which is at version 2).
inline constexpr char kMagic[4] = {'R', 'C', '5', 'W'};

/// Header bytes before the payload (magic + length + CRC).
inline constexpr std::size_t kHeaderBytes = 12;

/// Hard cap on one frame's payload.  A batch of frontier states on any real
/// program is a few KiB; anything near this cap is a corrupted length field.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;  // 16 MiB

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`,
/// computed slicing-by-8 (eight bytes per table round).
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

/// Wraps `payload` in a frame (header + bytes, ready to write to a pipe).
/// Throws support::Error if the payload exceeds kMaxFramePayload.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame parser over a byte stream delivered in arbitrary
/// chunks.  Bytes go in through prepare()/commit(), so read(2) writes
/// straight into the reader; next() pops the earliest complete frame as a view
/// into the reader's own buffer — no payload is copied, and the consumed
/// prefix is never shifted by next(): prepare() reuses the buffer from the
/// start once everything is consumed, and otherwise moves only the
/// unconsumed tail, only when it runs out of room.  Any validation failure
/// (bad magic, oversized length, CRC mismatch) poisons the reader
/// permanently: the stream cannot be re-synchronised, so every later next()
/// reports Corrupt too.
class FrameReader {
 public:
  enum class Status : std::uint8_t {
    NeedMore,  ///< no complete frame buffered yet
    Frame,     ///< `payload` views the next frame's payload
    Corrupt,   ///< stream failed validation (sticky); `error` says why
  };

  /// Writable room for at least `n` more bytes; commit() what was written.
  /// Invalidates every payload view next() handed out.
  [[nodiscard]] char* prepare(std::size_t n);
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Pops the next frame, or explains why it cannot.  `payload` stays valid
  /// until the next prepare().
  [[nodiscard]] Status next(std::string_view& payload, std::string& error);

  /// Bytes buffered but not yet consumed (diagnostics).
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

 private:
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last committed byte
  bool corrupt_ = false;
  std::string error_;
};

/// Lowercase hex of `words` packed as LEB128 varints, back to back (the
/// support::PackedWords byte layout).
[[nodiscard]] std::string words_hex(std::span<const std::uint64_t> words);

/// Parses words_hex output into `out` (cleared first).  Strict: throws
/// support::Error on an odd length, a character other than 0-9a-f, a
/// truncated, overlong or non-minimal varint — so every string it accepts
/// is exactly what words_hex prints for the words it returns.
void words_from_hex(std::string_view hex, std::vector<std::uint64_t>& out);

}  // namespace rc11::engine::wire
