#include "util/envelope.hpp"

#include "util/strings.hpp"

namespace stayaway::util {

namespace {

constexpr std::string_view kChecksumKey = "checksum = ";

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string seal_envelope(std::string_view magic, std::uint64_t version,
                          std::string_view body) {
  std::string out;
  out.reserve(magic.size() + body.size() + 48);
  out += magic;
  out += " v";
  out += std::to_string(version);
  out += '\n';
  out += body;
  out += kChecksumKey;
  out += std::to_string(fnv1a64(body));
  out += '\n';
  return out;
}

std::string_view open_envelope(std::string_view blob, std::string_view magic,
                               std::uint64_t version) {
  const std::string what(magic);
  // A blob that does not end in a newline lost its tail — report
  // truncation before anything subtler.
  std::size_t header_end = blob.find('\n');
  if (header_end == std::string_view::npos) {
    throw StateCodecError("truncated " + what + ": no header line");
  }
  std::string_view header = blob.substr(0, header_end);
  const std::string prefix = what + " v";
  if (header.substr(0, prefix.size()) != prefix) {
    throw StateCodecError("not a " + what + " blob");
  }
  std::uint64_t found = 0;
  if (!parse_u64(std::string(header.substr(prefix.size())), found)) {
    throw StateCodecError("malformed " + what + " version");
  }
  if (found != version) {
    throw EnvelopeVersionError("unsupported " + what + " version v" +
                               std::to_string(found) + " (this build reads v" +
                               std::to_string(version) + ")");
  }
  if (blob.back() != '\n') {
    throw StateCodecError("truncated " + what + ": missing trailing newline");
  }
  std::size_t trailer_start = blob.rfind('\n', blob.size() - 2);
  if (trailer_start == std::string_view::npos || trailer_start < header_end) {
    throw StateCodecError("truncated " + what + ": no body");
  }
  ++trailer_start;  // first char of the trailer line
  std::string_view trailer =
      blob.substr(trailer_start, blob.size() - trailer_start - 1);
  if (trailer.substr(0, kChecksumKey.size()) != kChecksumKey) {
    throw StateCodecError("truncated " + what + ": no checksum trailer");
  }
  std::uint64_t expected = 0;
  if (!parse_u64(std::string(trailer.substr(kChecksumKey.size())),
                 expected)) {
    throw StateCodecError("malformed " + what + " checksum");
  }
  std::string_view body =
      blob.substr(header_end + 1, trailer_start - header_end - 1);
  if (fnv1a64(body) != expected) {
    throw EnvelopeChecksumError(what + " checksum mismatch");
  }
  return body;
}

}  // namespace stayaway::util
