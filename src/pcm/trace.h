// PCM trace recording and replay.
//
// Real deployments of a detection scheme want to (a) archive the counter
// series that led to an alarm for forensics, and (b) re-run detectors
// offline over recorded traces when tuning parameters — without re-running
// the cloud. Traces are CSV (tick,access_num,miss_num) so they round-trip
// through ordinary tooling; the offline runner feeds a recorded trace into
// any pure stream analyzer.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcm/pcm_sampler.h"

namespace sds::pcm {

// Writes samples as CSV with a header row. Returns false on I/O failure.
bool WriteTrace(std::ostream& os, std::span<const PcmSample> samples);
bool WriteTraceFile(const std::string& path,
                    std::span<const PcmSample> samples);

// Parses a trace written by WriteTrace. Returns nullopt on malformed input
// (wrong header, non-numeric fields, negative values, or ticks that are not
// strictly increasing).
std::optional<std::vector<PcmSample>> ReadTrace(std::istream& is);
std::optional<std::vector<PcmSample>> ReadTraceFile(const std::string& path);

// JSONL export: one telemetry-format event line per sample,
//   {"type":"event","tick":N,"layer":"pcm","event":"sample",
//    "access_num":A,"miss_num":M}
// so recorded traces and live telemetry streams share one tooling format
// (tools/inspect reads both). Returns false on I/O failure.
bool WriteTraceJsonl(std::ostream& os, std::span<const PcmSample> samples);
bool WriteTraceJsonlFile(const std::string& path,
                         std::span<const PcmSample> samples);

// Parses the pcm "sample" event lines out of a JSONL stream — either a file
// written by WriteTraceJsonl or a full Telemetry::WriteJsonl stream (other
// line types are skipped). Returns nullopt on a malformed sample line or
// non-increasing ticks.
std::optional<std::vector<PcmSample>> ReadTraceJsonl(std::istream& is);
std::optional<std::vector<PcmSample>> ReadTraceJsonlFile(
    const std::string& path);

}  // namespace sds::pcm
