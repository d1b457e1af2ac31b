#include "core/checkpoint.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace stayaway::core {

namespace {

constexpr std::string_view kMagic = "stayaway-checkpoint";

}  // namespace

std::string encode_checkpoint(const HostPipeline& pipeline) {
  std::ostringstream body;
  util::StateWriter w(body);
  w.u64("records", pipeline.records().size());
  for (const PeriodRecord& rec : pipeline.records()) {
    w.line("record", serialize_period_record(rec));
  }
  pipeline.save_state(w);
  return util::seal_envelope(kMagic, kCheckpointVersion, body.str());
}

std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob) {
  std::istringstream in{
      std::string(util::open_envelope(blob, kMagic, kCheckpointVersion))};
  util::StateReader r(in);
  std::size_t count = static_cast<std::size_t>(r.u64("records"));
  std::vector<PeriodRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string line = r.line("record");
    try {
      records.push_back(parse_period_record(line));
    } catch (const PreconditionError& e) {
      // A malformed record is checkpoint damage like any other: the
      // supervisor drops the blob, --restore rejects it.
      throw util::StateCodecError("checkpoint record " + std::to_string(i) +
                                  ": " + e.what());
    }
  }
  pipeline.load_state(r);
  if (in.peek() != std::istringstream::traits_type::eof()) {
    throw util::StateCodecError("trailing data after checkpoint body");
  }
  pipeline.seed_records(std::move(records));
  return count;
}

std::size_t warm_start(HostPipeline& pipeline, sim::SimHost& host,
                       std::size_t ticks_per_period, const std::string& blob) {
  SA_REQUIRE(ticks_per_period >= 1,
             "each period must advance at least one tick");
  std::size_t restored = restore_checkpoint(pipeline, blob);
  SimHostActuationPort& port = pipeline.actuation_port();
  for (std::size_t k = 0; k < restored; ++k) {
    host.run(ticks_per_period);
    port.replay_delivered(host.now());
  }
  return restored;
}

void corrupt_checkpoint_blob(std::string& blob) {
  std::size_t header_end = blob.find('\n');
  if (header_end == std::string::npos || header_end + 1 >= blob.size()) {
    return;
  }
  std::size_t pos = header_end + 1 + (blob.size() - header_end - 1) / 2;
  while (pos < blob.size() && blob[pos] == '\n') ++pos;
  if (pos >= blob.size()) return;
  blob[pos] = blob[pos] == 'x' ? 'y' : 'x';
}

}  // namespace stayaway::core
