// Versioned, checksummed text envelope shared by every persisted blob
// (DESIGN.md §17, §18): the per-host checkpoint and the coordinator
// checkpoint both frame their util::StateIO body the same way,
//
//   <magic> v<version>             version header
//   ...body lines...               caller-defined
//   checksum = <fnv1a64(body)>     integrity trailer
//
// and open_envelope rejects damage before any body byte is decoded:
// framing and truncation first, then the version (its own error type),
// then the checksum over the raw body bytes (its own error type).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/statecodec.hpp"

namespace stayaway::util {

/// The blob carries a recognized header with an unsupported version —
/// distinct from corruption so callers can message it precisely.
class EnvelopeVersionError : public StateCodecError {
 public:
  using StateCodecError::StateCodecError;
};

/// The body hash disagrees with the trailer: the blob rotted at rest (or
/// a CheckpointCorrupt fault fired). The supervisor falls back to an
/// older checkpoint, then to a cold start.
class EnvelopeChecksumError : public StateCodecError {
 public:
  using StateCodecError::StateCodecError;
};

/// FNV-1a 64-bit over `text` — the envelope's integrity hash.
std::uint64_t fnv1a64(std::string_view text);

/// Frames `body` (newline-terminated lines, or empty) under a
/// `<magic> v<version>` header and a checksum trailer.
std::string seal_envelope(std::string_view magic, std::uint64_t version,
                          std::string_view body);

/// Verifies `blob` was sealed under `magic` at exactly `version` and
/// returns its body (a view into `blob`). Throws EnvelopeVersionError on
/// a version mismatch, EnvelopeChecksumError on an integrity failure and
/// StateCodecError on a foreign header or truncation.
std::string_view open_envelope(std::string_view blob, std::string_view magic,
                               std::uint64_t version);

}  // namespace stayaway::util
