#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/telemetry.hpp"

namespace yy::obs {

namespace {

/// Category shown in the tracing UI's filter box.
const char* phase_category(Phase p) {
  switch (p) {
    case Phase::halo_wait:
    case Phase::overset_wait:
    case Phase::reduce:
      return "comm";
    case Phase::io:
      return "io";
    default:
      return "compute";
  }
}

/// Shared body; a non-null manifest becomes the document's "otherData".
void write_chrome_trace_impl(const TraceRecorder& rec, std::ostream& out,
                             const RunManifest* manifest);

}  // namespace

void write_chrome_trace(const TraceRecorder& rec, std::ostream& out) {
  write_chrome_trace_impl(rec, out, nullptr);
}

void write_chrome_trace(const TraceRecorder& rec, std::ostream& out,
                        const RunManifest& manifest) {
  write_chrome_trace_impl(rec, out, &manifest);
}

namespace {

void write_chrome_trace_impl(const TraceRecorder& rec, std::ostream& out,
                             const RunManifest* manifest) {
  const std::vector<const RankTrace*> traces = rec.traces();

  // Re-zero the timeline to the earliest span so ts starts near 0.
  std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
  for (const RankTrace* t : traces)
    for (const Span& s : t->spans()) t_min = std::min(t_min, s.t0_ns);
  if (t_min == std::numeric_limits<std::int64_t>::max()) t_min = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[384];
  for (const RankTrace* t : traces) {
    if (!first) out << ",";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}}",
                  t->rank(), t->rank());
    out << "\n" << buf;
    for (const Span& s : t->spans()) {
      // Trace-event ts/dur are doubles in microseconds.
      const double ts = static_cast<double>(s.t0_ns - t_min) / 1e3;
      const double dur = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"step\":%" PRId64 ",\"bytes\":%" PRIu64 "}}",
                    phase_name(s.phase), phase_category(s.phase), t->rank(),
                    ts, dur, s.step, s.bytes);
      out << ",\n" << buf;
    }
  }
  out << "\n]";
  if (manifest != nullptr) {
    out << ",\"otherData\":";
    manifest->write_json(out);
  }
  out << "}\n";
}

}  // namespace

std::string chrome_trace_json(const TraceRecorder& rec) {
  std::ostringstream os;
  write_chrome_trace(rec, os);
  return os.str();
}

bool write_chrome_trace_file(const TraceRecorder& rec,
                             const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(rec, f);
  return f.good();
}

bool write_chrome_trace_file(const TraceRecorder& rec, const std::string& path,
                             const RunManifest& manifest) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(rec, f, manifest);
  return f.good();
}

}  // namespace yy::obs
