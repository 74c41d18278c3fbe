// Versioned, byte-stable serialization for RunRecord — the record payload
// of the worker protocol (runner/worker_protocol.hpp).
//
// Binary layout (all integers little-endian, doubles as IEEE-754 bits):
//
//   "BNGR" magic | u16 version | u32 point | u32 ordinal | u64 seed
//   | u64 digest | u8 has_attacker | [attacker: 5×f64, 2×u32, 2×u64]
//   | u32 n_values | n × (u16 name_len, name bytes, f64 value)
//
// Decoding is fully bounds-checked: a truncated buffer, a foreign magic, or
// a version this build does not speak throws CodecError — never reads out of
// bounds. The encoding is a pure function of the record (no timestamps, no
// padding), so two processes serializing the same record produce identical
// bytes; that is what makes `--procs N` bit-identical to `--jobs N`.
//
// The JSON form is the human/tooling view of the same data and round-trips
// through decode_record_json (non-finite doubles become null and come back
// as NaN — JSON has no inf/nan).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "runner/record.hpp"

namespace bng::runner {

/// Bump when the binary layout changes; decoders reject foreign versions.
inline constexpr std::uint16_t kRecordCodecVersion = 1;

struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Little-endian wire primitives — the single home of the byte layout,
/// shared by the record codec and the worker protocol (worker_protocol.cpp).
namespace wire {

void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);  ///< IEEE-754 bits

/// Bounds-checked cursor; throws CodecError instead of reading past the end.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;

  void need(std::size_t n) const;
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str(std::size_t n);
};

}  // namespace wire

/// Serialize to the versioned binary form.
[[nodiscard]] std::string encode_record(const RunRecord& record);

/// Parse a binary record; throws CodecError on bad magic, an unsupported
/// version, truncation, or trailing bytes.
[[nodiscard]] RunRecord decode_record(std::string_view bytes);

/// JSON string escaping, shared with the sweep emitter (runner/emit.cpp).
[[nodiscard]] std::string json_escape(std::string_view s);

/// One-line JSON object mirroring the binary fields.
[[nodiscard]] std::string encode_record_json(const RunRecord& record);

/// Parse encode_record_json output (a strict subset of JSON); throws
/// CodecError on malformed input or a version mismatch.
[[nodiscard]] RunRecord decode_record_json(std::string_view json);

// --- Length-prefixed framing -------------------------------------------------
//
// The worker protocol speaks frames over a byte stream: u32 LE payload
// length, then the payload. The first payload byte tags the frame kind.

inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  ///< sanity bound

enum class FrameKind : char {
  kHandshake = 'H',  ///< dispatcher -> worker: scenario source + run options
  kJob = 'J',        ///< dispatcher -> worker: one (point, ordinal) assignment
  kRecord = 'R',     ///< worker -> dispatcher: encode_record bytes
  kError = 'E',      ///< worker -> dispatcher: fatal job/setup error message
  kHeartbeat = 'B',  ///< worker -> dispatcher: periodic liveness beacon
};

/// Frame the payload (prepend the u32 length).
[[nodiscard]] std::string frame(std::string_view payload);

/// Extract one complete frame from the front of `buffer`, erasing it; false
/// if the buffer does not yet hold a full frame. Throws CodecError on an
/// oversized length prefix (corrupt stream).
bool take_frame(std::string& buffer, std::string& payload);

}  // namespace bng::runner
