#ifndef RAPID_BENCHMARK_TRACE_H_
#define RAPID_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"

namespace rbench {

// Spans of a trace run, kept in memory and written once at exit as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto, or summarize
// it with benchmark/trace_summary.py). Each span has a name, start, end,
// the id of the span that caused it (0 for a root) and the request id it
// belongs to. Spans are recorded only around calls the benchmark makes.
class TraceLog {
 public:
  // Records `name` over [start, end); returns its id.
  int Add(const char* name, Nanos start, Nanos end, int parent, uint64_t req,
          int lane);

  // The stage spans of one traced reply: a `request` root from its
  // scheduled send to its checked reply, with children gen.late,
  // net.encode, net.write, net.wait (holding serve.server, the
  // server-stamped submit-to-ready time) and net.decode.
  void AddOp(const Op& op, uint64_t req);

  // Writes the spans plus `meta` (a JSON object body of extra key/value
  // pairs) to `path`. False on I/O failure.
  bool Write(const std::string& path, const std::string& meta) const;

 private:
  struct Span {
    const char* name;
    Nanos start;
    Nanos end;
    int parent;
    uint64_t req;
    int lane;
  };
  std::vector<Span> spans_;
};

}  // namespace rbench

#endif  // RAPID_BENCHMARK_TRACE_H_
