#include "core/checkpoint.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace stayaway::core {

namespace {

constexpr std::string_view kMagic = "stayaway-checkpoint";

/// The checkpoint body: the record history, one PeriodRecord codec line
/// per period, then every stage's state.
void checkpoint_body(util::StateIO& io, HostPipeline& pipeline,
                     std::vector<PeriodRecord>& records) {
  io.sequence("records", records, [&io, &records](PeriodRecord& rec) {
    std::string line = io.loading() ? std::string()
                                    : serialize_period_record(rec);
    io.line("record", line);
    if (!io.loading()) return;
    try {
      rec = parse_period_record(line);
    } catch (const PreconditionError& e) {
      // A malformed record is checkpoint damage like any other: the
      // supervisor drops the blob, --restore rejects it.
      throw util::StateCodecError("checkpoint record " +
                                  std::to_string(records.size() - 1) + ": " +
                                  e.what());
    }
  });
  pipeline.state(io);
}

}  // namespace

std::string encode_checkpoint(const HostPipeline& pipeline) {
  std::ostringstream body;
  util::StateIO io(body);
  // A saving StateIO only reads through the references it is handed.
  checkpoint_body(io, const_cast<HostPipeline&>(pipeline),
                  const_cast<std::vector<PeriodRecord>&>(pipeline.records()));
  return util::seal_envelope(kMagic, kCheckpointVersion, body.str());
}

std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob) {
  std::istringstream in{
      std::string(util::open_envelope(blob, kMagic, kCheckpointVersion))};
  util::StateIO io(in);
  std::vector<PeriodRecord> records;
  checkpoint_body(io, pipeline, records);
  io.expect_end("checkpoint body");
  const std::size_t count = records.size();
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
