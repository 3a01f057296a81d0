#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace rbench {

int TraceLog::Add(const char* name, Nanos start, Nanos end, int parent,
                  uint64_t req, int lane) {
  spans_.push_back(Span{name, start, end, parent, req, lane});
  return static_cast<int>(spans_.size());  // Ids start at 1; 0 = no parent.
}

void TraceLog::AddOp(const Op& op, uint64_t req) {
  const int lane = op.conn + 1;
  const int root = Add("request", op.sched, op.done_at, 0, req, lane);
  Add("gen.late", op.sched, op.send, root, req, lane);
  Add("net.encode", op.send, op.encoded, root, req, lane);
  Add("net.write", op.encoded, op.written, root, req, lane);
  const int wait = Add("net.wait", op.written, op.received, root, req, lane);
  Add("serve.server", op.received - op.server_us * 1000, op.received, wait,
      req, lane);
  Add("net.decode", op.decode, op.parsed, root, req, lane);
}

bool TraceLog::Write(const std::string& path, const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Nanos epoch = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start);
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {%s},\n",
               meta.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"rbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"req\": %llu}}%s\n",
                 s.name, static_cast<double>(s.start - epoch) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, s.lane, i + 1,
                 s.parent, static_cast<unsigned long long>(s.req),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace rbench
