// Versioned checkpoint envelope for one host's control loop (DESIGN.md
// §17). A checkpoint is the pipeline's complete period-boundary state —
// the record history plus every stage, the actuation journal, the fault
// injector and the degradation machine — framed so a restore is either
// exact or a loud, typed failure:
//
//   stayaway-checkpoint v3        version header (util/envelope.hpp)
//   records = <n>                 } body via util::StateIO: the record
//   record = <record line>        } history in the one PeriodRecord codec
//   ...                           } (core/period.hpp), then the lines of
//   <state lines>                 } every stage's state() function
//   checksum = <fnv1a64(body)>    integrity trailer
//
// Doubles round-trip through format_double_exact, so restore-then-run
// reproduces the uninterrupted run byte for byte (the golden test in
// tests/test_checkpoint.cpp). encode and restore walk the same body
// function, so the layout is written down once. The envelope lives in
// src/core/ — stages describe their layout in one state(util::StateIO&)
// function (util/statecodec.hpp) and must never include this header
// (stage-checkpoint-isolation lint rule).
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "util/envelope.hpp"

namespace stayaway::core {

// v3 stores each record as one `record = <line>` in the PeriodRecord
// codec shared with the run-log (v2 spelled every field as its own
// `key = value` line). Older blobs are rejected with
// util::EnvelopeVersionError.
inline constexpr std::uint64_t kCheckpointVersion = 3;

/// Encodes the full checkpoint of `pipeline` at the current period
/// boundary. Requires pipeline.checkpointable().
std::string encode_checkpoint(const HostPipeline& pipeline);

/// Decodes `blob` into a freshly built pipeline (same wiring, same fault
/// plan, no periods run) and returns the number of completed periods.
/// Throws util::EnvelopeVersionError on a version mismatch,
/// util::EnvelopeChecksumError on an integrity failure and
/// util::StateCodecError on truncation or malformed fields (a malformed
/// record line included).
std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob);

/// Restores `blob` into a freshly built pipeline and fast-forwards the
/// freshly built host through the restored periods: ticks re-run, the
/// journalled actuations re-applied at their original boundaries, no
/// observer or hook activity. Returns the restored period count; the
/// caller drives the remaining live periods. Same exactness contract as
/// the supervisor's warm restart.
std::size_t warm_start(HostPipeline& pipeline, sim::SimHost& host,
                       std::size_t ticks_per_period, const std::string& blob);

/// Deterministically flips one body byte in a stored blob so the next
/// restore fails its checksum — how the CheckpointCorrupt fault models
/// at-rest rot. No-op on blobs too short to carry a body.
void corrupt_checkpoint_blob(std::string& blob);

}  // namespace stayaway::core
