#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "catalog.h"

namespace rbench {

namespace {

using rapid::net::FrameType;

constexpr Nanos kScrapeEvery = 200'000'000;
constexpr Nanos kTraceBlock = 500'000'000;
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kMaxErrorsLogged = 5;
const char* const kSlot = "main";

bool IsRequest(OpKind kind) {
  return kind == OpKind::kScore || kind == OpKind::kPage;
}

}  // namespace

Nanos Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Generator::Generator(const rapid::data::Dataset& data, Traffic& traffic,
                     const Workload& workload, uint64_t seed, bool trace)
    : traffic_(traffic),
      workload_(workload),
      seed_(seed),
      trace_(trace),
      dcm_(&data, rapid::click::DcmConfig{}) {}

Generator::~Generator() { Close(); }

void Generator::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
  }
}

bool Generator::Connect(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int c = 0; c < kConnections; ++c) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) return false;
    conns_.push_back(std::move(conn));
    const int fd = conns_.back().fd;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

int Generator::NewOp(OpKind kind, Phase phase, int request, Nanos sched,
                     int conn) {
  Op op;
  op.kind = kind;
  op.phase = phase;
  op.request = request;
  op.sched = sched;
  op.conn = static_cast<uint8_t>(conn);
  op.traced = trace_ && phase == Phase::kNominal &&
              ((sched - trace_epoch_) / kTraceBlock) % 2 == 0;
  ops_.push_back(std::move(op));
  ++outstanding_[static_cast<int>(phase)];
  return static_cast<int>(ops_.size()) - 1;
}

template <typename Encode>
void Generator::Send(int index, Encode&& encode) {
  Conn& conn = conns_[ops_[index].conn];
  if (conn.dead) {
    Finish(index, "connection lost");
    return;
  }
  Op& op = ops_[index];
  const size_t before = conn.out.size();
  op.send = Now();
  encode(&conn.out);
  if (op.traced) op.encoded = Now();
  conn.appended += conn.out.size() - before;
  conn.unwritten.emplace_back(conn.appended, index);
  Flush(op.conn);
}

void Generator::SubmitRequest(Phase phase, Nanos sched, int conn) {
  const int request = traffic_.Take();
  const Request& req = traffic_.requests[request];
  if (workload_.pages) {
    const rapid::data::PageSession& session = traffic_.pages[req.page];
    rapid::net::WirePageRequest page;
    page.slot = kSlot;
    page.user_id = req.user;
    page.diversity_budget = session.diversity_budget;
    page.top_k = kTopK;
    page.lists = session.lists;
    const int index = NewOp(OpKind::kPage, phase, request, sched, conn);
    page.request_id = static_cast<uint64_t>(index) + 1;
    Send(index, [&](std::vector<uint8_t>* out) {
      rapid::net::EncodePageRequest(page, out);
    });
  } else {
    rapid::net::WireRequest wire;
    wire.slot = kSlot;
    wire.list = traffic_.lists[req.list];
    const int index = NewOp(OpKind::kScore, phase, request, sched, conn);
    wire.request_id = static_cast<uint64_t>(index) + 1;
    Send(index, [&](std::vector<uint8_t>* out) {
      rapid::net::EncodeScoreRequest(wire, out);
    });
  }
}

void Generator::SendFeedback(int source) {
  const Op& src = ops_[source];
  const Request& req = traffic_.requests[src.request];
  rapid::net::WireFeedback feedback;
  feedback.slot = kSlot;
  feedback.model_version = src.version;
  feedback.user_id = req.user;
  feedback.items = src.served[0];
  std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ull +
                      static_cast<uint64_t>(src.request));
  for (const int click : dcm_.SimulateClicks(req.user, feedback.items, rng)) {
    feedback.clicks.push_back(click != 0 ? 1 : 0);
  }
  const int index = NewOp(OpKind::kFeedback, src.phase, source, Now(), src.conn);
  feedback.request_id = static_cast<uint64_t>(index) + 1;
  Send(index, [&](std::vector<uint8_t>* out) {
    rapid::net::EncodeFeedback(feedback, out);
  });
}

void Generator::Flush(int c) {
  Conn& conn = conns_[c];
  const uint64_t before = conn.flushed;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      conn.flushed += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    KillConn(c);
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  if (conn.flushed == before) return;
  const Nanos now = Now();
  while (!conn.unwritten.empty() &&
         conn.unwritten.front().first <= conn.flushed) {
    ops_[conn.unwritten.front().second].written = now;
    conn.unwritten.pop_front();
  }
}

void Generator::ReadAll(int c) {
  Conn& conn = conns_[c];
  for (;;) {
    if (conn.in.size() < conn.in_len + kReadChunk) {
      conn.in.resize(conn.in_len + kReadChunk);
    }
    const ssize_t n =
        ::recv(conn.fd, conn.in.data() + conn.in_len, kReadChunk, 0);
    if (n > 0) {
      conn.in_len += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    KillConn(c);  // EOF or socket error: the server went away.
    return;
  }
  const Nanos received = Now();
  size_t off = 0;
  for (;;) {
    const Nanos decode_start = trace_ ? Now() : 0;
    rapid::net::Frame frame;
    size_t consumed = 0;
    const rapid::net::DecodeStatus status = rapid::net::ExtractFrame(
        conn.in.data() + off, conn.in_len - off, &consumed, &frame);
    if (status == rapid::net::DecodeStatus::kNeedMore) break;
    if (status == rapid::net::DecodeStatus::kError) {
      std::fprintf(stderr, "[gen] framing lost on connection %d\n", c);
      KillConn(c);
      return;
    }
    off += consumed;
    HandleFrame(frame, decode_start, received);
  }
  std::copy(conn.in.begin() + static_cast<ptrdiff_t>(off),
            conn.in.begin() + static_cast<ptrdiff_t>(conn.in_len),
            conn.in.begin());
  conn.in_len -= off;
}

void Generator::HandleFrame(const rapid::net::Frame& frame, Nanos decode_start,
                            Nanos received) {
  const uint64_t id = frame.header.request_id;
  if (id == 0 || id > ops_.size() || ops_[id - 1].done) {
    ++stray_frames_;
    return;
  }
  const int index = static_cast<int>(id - 1);
  Op& op = ops_[index];
  op.received = received;
  if (op.traced) op.decode = decode_start;
  const FrameType type = frame.header.type;
  if (type == FrameType::kError) {
    rapid::net::WireError error;
    rapid::net::ParseError(frame, &error);
    if (errors_logged_ < kMaxErrorsLogged) {
      std::fprintf(stderr, "[gen] error frame: %s\n", error.message.c_str());
    }
    Finish(index, "error frame");
    return;
  }
  const char* error = nullptr;
  bool feedback = false;
  switch (op.kind) {
    case OpKind::kScore: {
      rapid::net::WireResponse reply;
      if (type != FrameType::kScoreResponse ||
          !rapid::net::ParseScoreResponse(frame, &reply)) {
        error = "unparseable score reply";
        break;
      }
      op.server_us = reply.server_latency_us;
      op.version = reply.model_version;
      const Request& req = traffic_.requests[op.request];
      if (reply.degraded || reply.shed) {
        error = "degraded or shed reply";
      } else if (reply.model_version < 1) {
        error = "reply without a model version";
      } else if (!IsPermutation(reply.items, traffic_.lists[req.list].items)) {
        error = "reply is not a permutation of the request";
      }
      op.served.assign(1, std::move(reply.items));
      feedback = req.feedback && error == nullptr && op.phase != Phase::kProbe;
      break;
    }
    case OpKind::kPage: {
      rapid::net::WirePageResponse reply;
      if (type != FrameType::kPageResponse ||
          !rapid::net::ParsePageResponse(frame, &reply)) {
        error = "unparseable page reply";
        break;
      }
      op.server_us = reply.server_latency_us;
      op.version = reply.model_version;
      const rapid::data::PageSession& session =
          traffic_.pages[traffic_.requests[op.request].page];
      if (reply.degraded) {
        error = "degraded page";
      } else if (reply.model_version < 1) {
        error = "page without a model version";
      } else if (reply.lists.size() != session.lists.size()) {
        error = "page reply has the wrong number of lists";
      } else {
        for (size_t l = 0; l < reply.lists.size() && error == nullptr; ++l) {
          if (!IsPermutation(reply.lists[l], session.lists[l].items)) {
            error = "page list is not a permutation of the request";
          }
        }
      }
      op.served = std::move(reply.lists);
      break;
    }
    case OpKind::kFeedback: {
      rapid::net::WireFeedbackAck ack;
      if (type != FrameType::kFeedbackAck ||
          !rapid::net::ParseFeedbackAck(frame, &ack)) {
        error = "unparseable feedback ack";
      } else if (!ack.accepted) {
        ++feedback_rejected_;
      }
      break;
    }
    case OpKind::kScrape:
    case OpKind::kStats: {
      rapid::net::WireStatsResponse reply;
      if (type != FrameType::kStatsResponse ||
          !rapid::net::ParseStatsResponse(frame, &reply)) {
        error = "unparseable stats reply";
      } else if (op.kind == OpKind::kStats) {
        stats_replies_[index] = std::move(reply);
      }
      break;
    }
  }
  if (op.traced) op.parsed = Now();
  const Phase phase = op.phase;
  const int conn = op.conn;
  const bool request = IsRequest(op.kind);
  Finish(index, error);
  // `op` may dangle from here on: sends below grow `ops_`.
  if (feedback) SendFeedback(index);
  if (phase == Phase::kSaturation && request) {
    const Nanos now = Now();
    if (now < saturate_until_) SubmitRequest(Phase::kSaturation, now, conn);
  }
}

void Generator::Finish(int index, const char* error) {
  Op& op = ops_[index];
  op.done = true;
  op.done_at = Now();
  if (error == nullptr && op.done_at - op.sched > kReplyLimit) {
    error = "reply slower than the 2 s limit";
  }
  op.ok = error == nullptr;
  op.error = error;
  --outstanding_[static_cast<int>(op.phase)];
  if (!op.ok && errors_logged_ < kMaxErrorsLogged) {
    ++errors_logged_;
    std::fprintf(stderr, "[gen] op %d failed: %s\n", index, error);
  }
}

void Generator::KillConn(int c) {
  Conn& conn = conns_[c];
  if (conn.dead) return;
  std::fprintf(stderr, "[gen] connection %d lost\n", c);
  conn.dead = true;
  ::close(conn.fd);
  conn.fd = -1;
  for (size_t i = phase_first_op_; i < ops_.size(); ++i) {
    if (!ops_[i].done && ops_[i].conn == c) {
      Finish(static_cast<int>(i), "connection lost");
    }
  }
}

void Generator::PollOnce(Nanos until) {
  std::array<pollfd, kConnections> fds{};
  for (int c = 0; c < kConnections; ++c) {
    const Conn& conn = conns_[c];
    fds[c].fd = conn.dead ? -1 : conn.fd;
    fds[c].events = POLLIN;
    if (conn.out_off < conn.out.size()) fds[c].events |= POLLOUT;
  }
  const Nanos wait = std::max<Nanos>(0, until - Now());
  timespec timeout{};
  timeout.tv_sec = wait / 1'000'000'000;
  timeout.tv_nsec = wait % 1'000'000'000;
  if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
  for (int c = 0; c < kConnections; ++c) {
    if (conns_[c].dead) continue;
    if (fds[c].revents & POLLOUT) Flush(c);
    if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) ReadAll(c);
  }
}

void Generator::Drain(Phase phase, Nanos last_sched) {
  const Nanos deadline = last_sched + kReplyLimit;
  while (outstanding_[static_cast<int>(phase)] > 0 && Now() < deadline) {
    PollOnce(deadline);
  }
  for (size_t i = phase_first_op_; i < ops_.size(); ++i) {
    if (!ops_[i].done && ops_[i].phase == phase) {
      Finish(static_cast<int>(i), "no reply within the 2 s limit");
    }
  }
}

void Generator::MaybeScrape(Phase phase, Nanos now) {
  if (!workload_.online || now < next_scrape_) return;
  const int index = NewOp(OpKind::kScrape, phase, -1, next_scrape_, next_conn_);
  next_conn_ = (next_conn_ + 1) % kConnections;
  next_scrape_ += kScrapeEvery;
  Send(index, [&](std::vector<uint8_t>* out) {
    rapid::net::WireStatsRequest request;
    request.request_id = static_cast<uint64_t>(index) + 1;
    request.format = rapid::net::StatsFormat::kPrometheus;
    rapid::net::EncodeStatsRequest(request, out);
  });
}

Nanos Generator::OpenLoop(Phase phase, double rate, double seconds) {
  phase_first_op_ = ops_.size();
  std::mt19937_64 rng(seed_ * 1000003 + static_cast<uint64_t>(phase));
  std::exponential_distribution<double> gap(rate);
  const double span_ns = seconds * 1e9;
  std::vector<Nanos> offsets;
  for (double t = gap(rng) * 1e9; t < span_ns; t += gap(rng) * 1e9) {
    offsets.push_back(static_cast<Nanos>(t));
  }
  traffic_.Pregenerate(offsets.size());
  const Nanos start = Now() + 1'000'000;
  std::vector<Nanos> due;
  due.reserve(offsets.size());
  for (const Nanos offset : offsets) due.push_back(start + offset);
  if (phase == Phase::kNominal) trace_epoch_ = start;
  next_scrape_ = start;
  size_t next = 0;
  while (next < due.size()) {
    const Nanos now = Now();
    while (next < due.size() && due[next] <= now) {
      SubmitRequest(phase, due[next], next_conn_);
      next_conn_ = (next_conn_ + 1) % kConnections;
      ++next;
    }
    MaybeScrape(phase, now);
    if (next == due.size()) break;
    PollOnce(workload_.online ? std::min(due[next], next_scrape_) : due[next]);
  }
  Drain(phase, due.empty() ? Now() : due.back());
  return start;
}

Nanos Generator::ClosedLoop(double seconds, int outstanding) {
  phase_first_op_ = ops_.size();
  const Nanos start = Now();
  saturate_until_ = start + static_cast<Nanos>(seconds * 1e9);
  next_scrape_ = start;
  for (int i = 0; i < outstanding; ++i) {
    SubmitRequest(Phase::kSaturation, Now(), i % kConnections);
  }
  for (Nanos now = Now(); now < saturate_until_; now = Now()) {
    MaybeScrape(Phase::kSaturation, now);
    PollOnce(workload_.online ? std::min(saturate_until_, next_scrape_)
                              : saturate_until_);
  }
  Drain(Phase::kSaturation, saturate_until_);
  return start;
}

bool Generator::Scrape(rapid::net::StatsFormat format,
                       rapid::net::WireStatsResponse* out, Nanos* took) {
  phase_first_op_ = ops_.size();
  const int index = NewOp(OpKind::kStats, Phase::kBoundary, -1, Now(), 0);
  Send(index, [&](std::vector<uint8_t>* buf) {
    rapid::net::WireStatsRequest request;
    request.request_id = static_cast<uint64_t>(index) + 1;
    request.format = format;
    rapid::net::EncodeStatsRequest(request, buf);
  });
  Drain(Phase::kBoundary, ops_[index].sched);
  const auto it = stats_replies_.find(index);
  if (!ops_[index].ok || it == stats_replies_.end()) return false;
  *out = std::move(it->second);
  stats_replies_.erase(it);
  *took = ops_[index].done_at - ops_[index].sched;
  return true;
}

bool Generator::IsPermutation(const std::vector<int>& served,
                              const std::vector<int>& items) {
  if (served.size() != items.size()) return false;
  sorted_served_.assign(served.begin(), served.end());
  sorted_items_.assign(items.begin(), items.end());
  std::sort(sorted_served_.begin(), sorted_served_.end());
  std::sort(sorted_items_.begin(), sorted_items_.end());
  return sorted_served_ == sorted_items_;
}

}  // namespace rbench
