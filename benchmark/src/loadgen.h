#ifndef RAPID_BENCHMARK_LOADGEN_H_
#define RAPID_BENCHMARK_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <unordered_map>
#include <vector>

#include "click/dcm.h"
#include "net/codec.h"
#include "traffic.h"

namespace rbench {

using Nanos = int64_t;

// Monotonic clock, nanoseconds.
Nanos Now();

inline constexpr int kConnections = 4;
// A reply slower than this, counted from its scheduled send time, fails.
inline constexpr Nanos kReplyLimit = 2'000'000'000;

enum class OpKind : uint8_t { kScore, kPage, kFeedback, kScrape, kStats };
// kProbe: after the measured phases, replies whose model version is pinned
// (no feedback is sent, so the trainer stays idle) for the replay check.
enum class Phase : uint8_t { kWarmup, kNominal, kSaturation, kProbe, kBoundary };
inline constexpr int kNumPhases = 5;

// One frame the generator sent and what came back. Latency is measured
// from `sched`, the time the frame was due, so a stall in the generator or
// the server is charged to every request it delayed.
struct Op {
  OpKind kind = OpKind::kScore;
  Phase phase = Phase::kBoundary;
  // Encode and decode are timed per frame (a trace run's traced blocks).
  bool traced = false;
  bool done = false;
  bool ok = false;
  uint8_t conn = 0;
  // Traffic request index (score/page); for feedback, the op it follows.
  int request = -1;
  Nanos sched = 0;
  Nanos send = 0;       // Encode started.
  Nanos encoded = 0;    // Encode finished (traced only).
  Nanos written = 0;    // Last byte accepted by the kernel.
  Nanos received = 0;   // The read that completed the reply returned.
  Nanos decode = 0;     // ExtractFrame started (traced only).
  Nanos parsed = 0;     // Parse* finished (traced only).
  Nanos done_at = 0;    // Reply parsed and checked.
  int64_t server_us = 0;
  uint64_t version = 0;
  const char* error = nullptr;
  // Served order(s): one list for a score request, one per list for a page.
  std::vector<std::vector<int>> served;
};

// The single-threaded open-loop load generator: kConnections non-blocking
// sockets driven from one ppoll loop, speaking the wire protocol through the
// public net/codec.h functions only. Every reply is checked as it arrives:
// it must parse, must not be an error, degraded or shed frame, must carry
// a model version >= 1, and must be a permutation of the request's items.
class Generator {
 public:
  Generator(const rapid::data::Dataset& data, Traffic& traffic,
            const Workload& workload, uint64_t seed, bool trace);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect(uint16_t port);
  void Close();

  // Poisson arrivals at `rate` per second for `seconds`, then waits (up to
  // the reply limit) for the phase's replies. Returns when the phase opened.
  Nanos OpenLoop(Phase phase, double rate, double seconds);

  // Keeps `outstanding` requests in flight over all connections for
  // `seconds`; returns when the window opened.
  Nanos ClosedLoop(double seconds, int outstanding);

  // Synchronous stats scrape between phases. Returns false on failure;
  // `*took` is the client-timed round trip.
  bool Scrape(rapid::net::StatsFormat format,
              rapid::net::WireStatsResponse* out, Nanos* took);

  const std::vector<Op>& ops() const { return ops_; }
  // Feedback frames the server acked without logging them (log full).
  uint64_t feedback_rejected() const { return feedback_rejected_; }
  // Reply frames whose request id matched no outstanding op.
  uint64_t stray_frames() const { return stray_frames_; }

 private:
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    uint64_t appended = 0;  // Stream bytes queued so far.
    uint64_t flushed = 0;   // Stream bytes the kernel accepted.
    // (stream end offset, op) of frames not yet fully written.
    std::deque<std::pair<uint64_t, int>> unwritten;
    std::vector<uint8_t> in;
    size_t in_len = 0;
  };

  int NewOp(OpKind kind, Phase phase, int request, Nanos sched, int conn);
  // Encodes op `index`'s frame with `encode(std::vector<uint8_t>*)` onto
  // its connection and writes as much as the socket takes.
  template <typename Encode>
  void Send(int index, Encode&& encode);
  void SubmitRequest(Phase phase, Nanos sched, int conn);
  void SendFeedback(int source);
  void Flush(int c);
  void ReadAll(int c);
  void HandleFrame(const rapid::net::Frame& frame, Nanos decode_start,
                   Nanos received);
  void Finish(int index, const char* error);
  void KillConn(int c);
  // One ppoll round: waits until `until` at the latest, then services
  // every ready socket.
  void PollOnce(Nanos until);
  // Waits until every op of `phase` completed or the reply limit passed
  // for the last one sent, then fails whatever is still outstanding.
  void Drain(Phase phase, Nanos last_sched);
  void MaybeScrape(Phase phase, Nanos now);
  bool IsPermutation(const std::vector<int>& served,
                     const std::vector<int>& items);

  Traffic& traffic_;
  const Workload& workload_;
  const uint64_t seed_;
  const bool trace_;
  const rapid::click::GroundTruthClickModel dcm_;

  std::vector<Conn> conns_;
  std::vector<Op> ops_;
  int next_conn_ = 0;
  int outstanding_[kNumPhases] = {};  // Per Phase.
  size_t phase_first_op_ = 0;
  // Trace runs alternate 500 ms blocks with and without per-frame timing,
  // so one run measures the tracing overhead.
  Nanos trace_epoch_ = 0;
  // Closed loop: each completion resubmits on its connection until
  // `saturate_until_`.
  Nanos saturate_until_ = 0;
  Nanos next_scrape_ = 0;
  uint64_t feedback_rejected_ = 0;
  uint64_t stray_frames_ = 0;
  int errors_logged_ = 0;
  std::unordered_map<int, rapid::net::WireStatsResponse> stats_replies_;
  std::vector<int> sorted_served_;
  std::vector<int> sorted_items_;
};

}  // namespace rbench

#endif  // RAPID_BENCHMARK_LOADGEN_H_
