#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "online/feedback.h"
#include "page/page.h"
#include "serve/prometheus.h"

#if defined(__linux__)
#include <sys/epoll.h>
#endif

namespace rapid::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kWatchRead = 1;
constexpr uint32_t kWatchWrite = 2;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

ServerConfig Sanitized(ServerConfig cfg) {
  cfg.num_dispatchers = std::max(cfg.num_dispatchers, 1);
  cfg.max_connections = std::max(cfg.max_connections, 1);
  cfg.max_inflight_per_conn = std::max(cfg.max_inflight_per_conn, 1);
  cfg.idle_timeout_ms = std::max<int64_t>(cfg.idle_timeout_ms, 0);
  cfg.write_stall_timeout_ms = std::max<int64_t>(cfg.write_stall_timeout_ms, 0);
  cfg.max_write_buffer_bytes = std::max<size_t>(cfg.max_write_buffer_bytes, 1);
  cfg.drain_linger_ms = std::max<int64_t>(cfg.drain_linger_ms, 0);
  cfg.poll_tick_ms = std::clamp<int64_t>(cfg.poll_tick_ms, 1, 1000);
  return cfg;
}

}  // namespace

/// One accepted connection. Owned and touched exclusively by the event
/// loop thread; dispatchers only ever see the connection *id*.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  /// Raw inbound bytes; complete frames are parsed off the front.
  std::vector<uint8_t> rbuf;
  /// Encoded outbound frames, front partially written up to `woff`.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    bool is_response = false;
    /// Fault seam: event-loop ticks this frame is still held back before
    /// any of it enters the socket. 0 outside fault-injected runs.
    int delay_ticks = 0;
  };
  std::deque<OutFrame> wbufs;
  size_t woff = 0;
  size_t wbuf_bytes = 0;
  /// Parsed score requests not yet answered on the wire.
  int inflight = 0;
  uint32_t watch_mask = 0;
  /// Peer half-closed (EOF on read): answer what was parsed, flush, then
  /// close — a client may pipeline a batch and immediately SHUT_WR.
  bool peer_eof = false;
  Clock::time_point last_read;
  Clock::time_point last_write_progress;
};

class Server::Poller {
 public:
  virtual ~Poller() = default;
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };
  /// Registers, re-arms, or (mask 0) removes `fd`. Level-triggered.
  virtual void Watch(int fd, uint32_t mask) = 0;
  virtual void Wait(int timeout_ms, std::vector<Event>* out) = 0;
};

namespace {

/// Portable fallback: rebuilds the pollfd array per wait. O(fds) per call,
/// which is irrelevant below a few hundred connections.
class PollPoller : public Server::Poller {
 public:
  void Watch(int fd, uint32_t mask) override {
    if (mask == 0) {
      masks_.erase(fd);
    } else {
      masks_[fd] = mask;
    }
  }

  void Wait(int timeout_ms, std::vector<Event>* out) override {
    fds_.clear();
    for (const auto& [fd, mask] : masks_) {
      short events = 0;
      if (mask & kWatchRead) events |= POLLIN;
      if (mask & kWatchWrite) events |= POLLOUT;
      fds_.push_back({fd, events, 0});
    }
    out->clear();
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      out->push_back({p.fd, (p.revents & POLLIN) != 0,
                      (p.revents & POLLOUT) != 0,
                      (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0});
    }
  }

 private:
  std::unordered_map<int, uint32_t> masks_;
  std::vector<pollfd> fds_;
};

#if defined(__linux__)
class EpollPoller : public Server::Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(0)) {}
  ~EpollPoller() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  void Watch(int fd, uint32_t mask) override {
    epoll_event ev{};
    ev.data.fd = fd;
    if (mask & kWatchRead) ev.events |= EPOLLIN;
    if (mask & kWatchWrite) ev.events |= EPOLLOUT;
    const auto it = registered_.find(fd);
    if (mask == 0) {
      if (it != registered_.end()) {
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
        registered_.erase(it);
      }
      return;
    }
    if (it == registered_.end()) {
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
      registered_[fd] = mask;
    } else if (it->second != mask) {
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
      it->second = mask;
    }
  }

  void Wait(int timeout_ms, std::vector<Event>* out) override {
    events_.resize(std::max<size_t>(registered_.size() + 1, 16));
    out->clear();
    const int n = ::epoll_wait(epfd_, events_.data(),
                               static_cast<int>(events_.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events_[i];
      out->push_back({ev.data.fd, (ev.events & EPOLLIN) != 0,
                      (ev.events & EPOLLOUT) != 0,
                      (ev.events & (EPOLLERR | EPOLLHUP)) != 0});
    }
  }

 private:
  int epfd_ = -1;
  std::unordered_map<int, uint32_t> registered_;
  std::vector<epoll_event> events_;
};
#endif  // __linux__

std::unique_ptr<Server::Poller> MakePoller(bool use_poll) {
#if defined(__linux__)
  if (!use_poll) return std::make_unique<EpollPoller>();
#else
  (void)use_poll;
#endif
  return std::make_unique<PollPoller>();
}

}  // namespace

Server::Server(serve::ServingRouter& router, ServerConfig config)
    : router_(router), config_(Sanitized(std::move(config))) {}

Server::~Server() { Stop(); }

bool Server::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  poller_ = MakePoller(config_.use_poll);
  poller_->Watch(listen_fd_, kWatchRead);
  poller_->Watch(wake_read_fd_, kWatchRead);

  stopping_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_closed_ = false;
  }
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { LoopThread(); });
  dispatchers_.reserve(config_.num_dispatchers);
  for (int i = 0; i < config_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherThread(); });
  }
  return true;
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the loop so it notices the flag without waiting out a tick.
  const char byte = 0;
  if (wake_write_fd_ >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  if (loop_.joinable()) loop_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_closed_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  poller_.reset();
}

void Server::DispatcherThread() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return work_closed_ || !work_.empty(); });
      if (work_.empty()) {
        if (work_closed_) return;
        continue;
      }
      work = std::move(work_.front());
      work_.pop_front();
    }
    Completion completion;
    completion.conn_id = work.conn_id;
    if (work.type == FrameType::kStatsRequest) {
      WireStatsResponse response;
      response.request_id = work.admin_request_id;
      response.format = work.stats_format;
      if (work.stats_format == StatsFormat::kJson) {
        response.text = StatsWithNet().ToJson();
      } else if (work.stats_format == StatsFormat::kPrometheus) {
        response.text = serve::RenderPrometheus(StatsWithNet());
      } else {
        response.stats = StatsWithNet();
      }
      EncodeStatsResponse(response, &completion.frame);
    } else if (work.type == FrameType::kLoadSlotRequest) {
      // The expensive part (snapshot rebuild + canary probe) runs here on
      // the dispatcher, never on the event loop; scoring traffic keeps
      // flowing on the old version until the publish inside LoadSlot.
      WireLoadResponse response;
      response.request_id = work.admin_request_id;
      response.version = router_.LoadSlot(work.load_slot, work.load_path);
      if (response.version == 0) {
        response.message = "snapshot load failed or canary rejected";
      }
      EncodeLoadResponse(response, &completion.frame);
    } else if (work.type == FrameType::kPageRequest) {
      ServePage(std::move(work.page), &completion.frame);
    } else {
      serve::RouterRequest request;
      request.slot = std::move(work.request.slot);
      request.lane = work.request.lane;
      request.list = std::move(work.request.list);
      // The future resolves from the router's worker pool (or inline on a
      // cache hit / shed); blocking here is the dispatcher's whole job.
      serve::RouterResponse routed = router_.Submit(std::move(request)).get();

      WireResponse response;
      response.request_id = work.request.request_id;
      response.degraded = routed.degraded;
      response.shed = routed.shed;
      response.cache_hit = routed.cache_hit;
      response.model_name = std::move(routed.model_name);
      response.model_version = routed.model_version;
      response.server_latency_us = routed.latency_us;
      response.items = std::move(routed.items);
      EncodeScoreResponse(response, &completion.frame);
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(completion));
    }
    const char byte = 0;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void Server::ServePage(WirePageRequest page, std::vector<uint8_t>* frame_out) {
  const size_t num_lists = page.lists.size();
  // Submit every list before gathering: the router's micro-batcher sees the
  // whole page at once, so the lists score in one (or few) model batches —
  // the throughput edge `bench_page` measures against per-list frames.
  std::vector<std::future<serve::RouterResponse>> futures;
  futures.reserve(num_lists);
  for (data::ImpressionList& list : page.lists) {
    list.user_id = page.user_id;
    serve::RouterRequest request;
    request.slot = page.slot;
    request.lane = page.lane;
    request.list = std::move(list);
    futures.push_back(router_.Submit(std::move(request)));
  }

  WirePageResponse response;
  response.request_id = page.request_id;
  const data::Dataset& data = router_.dataset();
  const int num_items = static_cast<int>(data.items.size());
  bool degraded = false;
  int64_t latency_us = 0;
  std::vector<std::vector<int>> routed(num_lists);
  for (size_t l = 0; l < num_lists; ++l) {
    serve::RouterResponse reply = futures[l].get();
    if (l == 0) {
      response.model_name = std::move(reply.model_name);
      response.model_version = reply.model_version;
    }
    degraded = degraded || reply.degraded || reply.shed;
    latency_us = std::max(latency_us, reply.latency_us);
    for (const int item : reply.items) {
      // Degraded fallbacks echo the input order, which may carry ids
      // outside the catalog; the coverage pass must never index them.
      if (item < 0 || item >= num_items) degraded = true;
    }
    routed[l] = std::move(reply.items);
  }

  response.server_latency_us = latency_us;
  response.degraded = degraded;
  float redundancy = 0.0f;
  if (degraded) {
    // Best effort: the router orders are already relevance-ranked; skip
    // the cross-list pass rather than risk reading out-of-catalog items.
    response.lists = std::move(routed);
  } else {
    page::PageRerankConfig cfg;
    cfg.joint = page.joint != 0;
    cfg.top_k = page.top_k;
    page::PageReranker reranker(data, cfg);
    std::vector<std::vector<float>> relevance;
    relevance.reserve(num_lists);
    for (const std::vector<int>& list : routed) {
      relevance.push_back(page::PageReranker::RankRelevance(list.size()));
    }
    page::PageResult result =
        reranker.Rerank(routed, relevance, page.diversity_budget);
    response.page_coverage = result.page_coverage;
    response.cross_list_redundancy = result.cross_list_redundancy;
    redundancy = result.cross_list_redundancy;
    response.lists = std::move(result.lists);
    if (cfg.joint) page_stats_.Add(&serve::PageStats::joint_pages);
  }

  page_stats_.Add(&serve::PageStats::pages);
  page_stats_.Add(&serve::PageStats::page_lists, num_lists);
  if (degraded) page_stats_.Add(&serve::PageStats::degraded_pages);
  if (num_lists > 0) {
    page_stats_.AddToBin(&serve::PageStats::lists_per_page_hist,
                         num_lists - 1);
  }
  page_stats_.Add(&serve::PageStats::redundancy_millitopics,
                  static_cast<uint64_t>(std::max(redundancy, 0.0f) * 1000.0f));
  page_stats_.Max(&serve::PageStats::max_lists_per_page,
                  static_cast<int>(num_lists));

  EncodePageResponse(response, frame_out);
}

void Server::LoopThread() {
  std::vector<Poller::Event> events;
  bool draining = false;
  size_t total_inflight = 0;  // Recomputed below; loop-thread-only.

  const auto recount_inflight = [&] {
    total_inflight = 0;
    for (const auto& [id, conn] : connections_) {
      total_inflight += static_cast<size_t>(conn->inflight);
    }
  };

  for (;;) {
    DrainCompletions();

    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      if (listen_fd_ >= 0) {
        poller_->Watch(listen_fd_, 0);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // From here on no new bytes are read and no buffered bytes are
      // parsed: "in-flight" is frozen to the already-parsed requests.
    }

    if (draining) {
      recount_inflight();
      bool flushed = total_inflight == 0;
      for (const auto& [id, conn] : connections_) {
        flushed = flushed && conn->wbufs.empty();
      }
      if (flushed) break;  // Fall through to the FIN + linger phase.
    }

    std::vector<uint64_t> finished_eof;
    for (const auto& [id, conn] : connections_) {
      if (conn->peer_eof && conn->inflight == 0 && conn->wbufs.empty()) {
        finished_eof.push_back(id);  // Half-closed peer, all answered.
        continue;
      }
      uint32_t mask = 0;
      if (!draining && !conn->peer_eof &&
          conn->inflight < config_.max_inflight_per_conn) {
        mask |= kWatchRead;
      }
      if (!conn->wbufs.empty()) mask |= kWatchWrite;
      if (mask != conn->watch_mask) {
        poller_->Watch(conn->fd, mask);
        conn->watch_mask = mask;
      }
    }
    for (const uint64_t id : finished_eof) CloseConnection(id);

    poller_->Wait(static_cast<int>(config_.poll_tick_ms), &events);

    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char scratch[256];
        while (::read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
        }
        continue;
      }
      if (event.fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      // Map fd -> connection (linear scan is fine at this fan-in; the
      // map is keyed by id because ids, unlike fds, are never reused).
      Connection* conn = nullptr;
      for (const auto& [id, candidate] : connections_) {
        if (candidate->fd == event.fd) {
          conn = candidate.get();
          break;
        }
      }
      if (conn == nullptr) continue;  // Closed earlier this iteration.
      if (event.error) {
        CloseConnection(conn->id);
        continue;
      }
      const uint64_t conn_id = conn->id;
      if (event.writable) WriteReady(conn);
      // WriteReady may close on EPIPE; re-resolve before reading.
      if (event.readable && connections_.count(conn_id) != 0 && !draining) {
        ReadReady(conn);
      }
    }

    DrainCompletions();
    TickFaultDelays();
    EnforceTimeouts();
  }

  // Drain phase 2: every response is flushed. Send FIN so clients see a
  // clean end-of-stream after their last response, then linger briefly,
  // discarding whatever the client was still sending — closing with
  // unread bytes in the receive queue would turn the FIN into an RST and
  // could tear down responses still in the client's receive buffer.
  for (const auto& [id, conn] : connections_) {
    ::shutdown(conn->fd, SHUT_WR);
    if (conn->watch_mask != kWatchRead) {
      poller_->Watch(conn->fd, kWatchRead);
      conn->watch_mask = kWatchRead;
    }
  }
  const Clock::time_point linger_deadline =
      Clock::now() + std::chrono::milliseconds(config_.drain_linger_ms);
  while (!connections_.empty() && Clock::now() < linger_deadline) {
    poller_->Wait(static_cast<int>(config_.poll_tick_ms), &events);
    std::vector<uint64_t> finished;
    for (const Poller::Event& event : events) {
      for (const auto& [id, conn] : connections_) {
        if (conn->fd != event.fd) continue;
        char scratch[4096];
        ssize_t n;
        while ((n = ::read(conn->fd, scratch, sizeof(scratch))) > 0) {
        }
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          finished.push_back(id);
        }
        break;
      }
    }
    for (const uint64_t id : finished) CloseConnection(id);
  }
  std::vector<uint64_t> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) remaining.push_back(id);
  for (const uint64_t id : remaining) CloseConnection(id);
}

void Server::AcceptReady() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error; the loop retries.
    if (connections_.size() >=
        static_cast<size_t>(config_.max_connections)) {
      net_stats_.Add(&serve::NetStats::connections_rejected);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                   sizeof(config_.so_sndbuf));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_read = conn->last_write_progress = Clock::now();
    poller_->Watch(fd, kWatchRead);
    conn->watch_mask = kWatchRead;
    net_stats_.Add(&serve::NetStats::connections_accepted);
    net_stats_.Add(&serve::NetStats::connections_active);
    connections_.emplace(conn->id, std::move(conn));
  }
}

void Server::ReadReady(Connection* conn) {
  char scratch[16384];
  if (config_.fault_plan != nullptr && config_.fault_plan->InjectReset()) {
    // Injected peer loss: the connection vanishes exactly as it would on
    // a hard socket error — owed responses are counted dropped.
    CloseConnection(conn->id);
    return;
  }
  for (;;) {
    size_t want = sizeof(scratch);
    if (config_.fault_plan != nullptr) {
      want = config_.fault_plan->ClampRead(want);
    }
    const ssize_t n = ::read(conn->fd, scratch, want);
    if (n > 0) {
      net_stats_.Add(&serve::NetStats::bytes_in, static_cast<uint64_t>(n));
      conn->rbuf.insert(conn->rbuf.end(), scratch, scratch + n);
      conn->last_read = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) {  // Hard error: the stream is gone.
      CloseConnection(conn->id);
      return;
    }
    // EOF. Parse what already arrived (a client may pipeline a batch and
    // immediately half-close); responses owed are still answered and
    // flushed before the close.
    const uint64_t conn_id = conn->id;
    ParseFrames(conn);
    if (connections_.count(conn_id) == 0) return;  // Framing error closed.
    conn->peer_eof = true;
    if (conn->inflight == 0 && conn->wbufs.empty()) CloseConnection(conn_id);
    return;
  }
  ParseFrames(conn);
}

void Server::ParseFrames(Connection* conn) {
  size_t offset = 0;
  const uint64_t conn_id = conn->id;
  while (offset < conn->rbuf.size()) {
    Frame frame;
    size_t consumed = 0;
    const DecodeStatus status =
        ExtractFrame(conn->rbuf.data() + offset, conn->rbuf.size() - offset,
                     &consumed, &frame, config_.limits);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      // Framing is lost: there is no way to find the next frame boundary,
      // so the connection is closed (responses already in flight are
      // dropped and counted).
      net_stats_.Add(&serve::NetStats::closed_protocol_error);
      CloseConnection(conn_id);
      return;
    }
    offset += consumed;
    HandleFrame(conn, std::move(frame));
    if (connections_.count(conn_id) == 0) return;  // Closed by handler.
  }
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() + static_cast<ptrdiff_t>(offset));
}

void Server::HandleFrame(Connection* conn, Frame frame) {
  // Malformed-but-framed payloads and unwanted types are answered with an
  // error frame instead of disconnecting — framing survived, so the
  // connection is still usable.
  const auto answer_error = [&](const char* message) {
    net_stats_.Add(&serve::NetStats::decode_errors);
    std::vector<uint8_t> out;
    EncodeError(frame.header.request_id, message, &out);
    net_stats_.Add(&serve::NetStats::error_frames_out);
    QueueWrite(conn, std::move(out));
  };

  if (frame.header.type == FrameType::kStatsRequest) {
    WireStatsRequest stats_request;
    if (!ParseStatsRequest(frame, &stats_request, config_.limits)) {
      answer_error("malformed stats request");
      return;
    }
    net_stats_.Add(&serve::NetStats::stats_frames);
    Work work;
    work.conn_id = conn->id;
    work.type = FrameType::kStatsRequest;
    work.admin_request_id = stats_request.request_id;
    work.stats_format = stats_request.format;
    EnqueueWork(conn, std::move(work));
    return;
  }

  if (frame.header.type == FrameType::kLoadSlotRequest) {
    WireLoadRequest load_request;
    if (!ParseLoadRequest(frame, &load_request, config_.limits)) {
      answer_error("malformed load request");
      return;
    }
    net_stats_.Add(&serve::NetStats::load_frames);
    if (!config_.enable_remote_load) {
      // Refused, not dropped: the caller gets a definite answer and the
      // connection keeps serving score traffic.
      std::vector<uint8_t> out;
      EncodeError(frame.header.request_id, "remote load disabled", &out);
      net_stats_.Add(&serve::NetStats::error_frames_out);
      QueueWrite(conn, std::move(out));
      return;
    }
    Work work;
    work.conn_id = conn->id;
    work.type = FrameType::kLoadSlotRequest;
    work.admin_request_id = load_request.request_id;
    work.load_slot = std::move(load_request.slot);
    work.load_path = std::move(load_request.path);
    EnqueueWork(conn, std::move(work));
    return;
  }

  if (frame.header.type == FrameType::kFeedback) {
    WireFeedback feedback;
    if (!ParseFeedback(frame, &feedback, config_.limits)) {
      answer_error("malformed feedback frame");
      return;
    }
    net_stats_.Add(&serve::NetStats::feedback_frames);
    if (config_.feedback_log == nullptr) {
      // Refused, not dropped: the caller gets a definite answer and the
      // connection keeps serving score traffic.
      std::vector<uint8_t> out;
      EncodeError(frame.header.request_id, "feedback disabled", &out);
      net_stats_.Add(&serve::NetStats::error_frames_out);
      QueueWrite(conn, std::move(out));
      return;
    }
    // Handled inline on the event loop: Append is an O(1) bounded push
    // that drops (never blocks) on a full log, so there is nothing worth
    // a dispatcher round-trip.
    online::FeedbackEvent event;
    event.slot = std::move(feedback.slot);
    event.model_version = feedback.model_version;
    event.list.user_id = feedback.user_id;
    event.list.items = std::move(feedback.items);
    event.list.clicks.assign(feedback.clicks.begin(), feedback.clicks.end());
    const bool accepted = config_.feedback_log->Append(std::move(event));
    WireFeedbackAck ack;
    ack.request_id = feedback.request_id;
    ack.accepted = accepted;
    if (!accepted) ack.message = "feedback log full or closed";
    std::vector<uint8_t> out;
    EncodeFeedbackAck(ack, &out);
    QueueWrite(conn, std::move(out));
    return;
  }

  if (frame.header.type == FrameType::kPageRequest) {
    Work work;
    if (!ParsePageRequest(frame, &work.page, config_.limits)) {
      answer_error("malformed page request");
      return;
    }
    net_stats_.Add(&serve::NetStats::frames_in);
    work.conn_id = conn->id;
    work.type = FrameType::kPageRequest;
    EnqueueWork(conn, std::move(work));
    return;
  }

  if (frame.header.type != FrameType::kScoreRequest) {
    answer_error("unexpected frame type");
    return;
  }
  Work work;
  if (!ParseScoreRequest(frame, &work.request, config_.limits)) {
    answer_error("malformed score request");
    return;
  }
  net_stats_.Add(&serve::NetStats::frames_in);
  work.conn_id = conn->id;
  EnqueueWork(conn, std::move(work));
}

void Server::EnqueueWork(Connection* conn, Work work) {
  conn->inflight++;
  net_stats_.Max(&serve::NetStats::max_inflight_per_conn, conn->inflight);
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_.push_back(std::move(work));
  }
  work_cv_.notify_one();
}

void Server::QueueWrite(Connection* conn, std::vector<uint8_t> bytes) {
  QueueWriteTagged(conn, std::move(bytes), /*is_response=*/false);
}

void Server::QueueWriteTagged(Connection* conn, std::vector<uint8_t> bytes,
                              bool is_response) {
  conn->wbuf_bytes += bytes.size();
  int delay_ticks = 0;
  if (config_.fault_plan != nullptr) {
    delay_ticks = config_.fault_plan->NextFrameDelayTicks();
  }
  conn->wbufs.push_back({std::move(bytes), is_response, delay_ticks});
  if (conn->wbuf_bytes > config_.max_write_buffer_bytes) {
    // Slow client: it stopped reading while responses kept arriving.
    // Disconnecting bounds the server's memory; the client's unread
    // responses are counted as dropped.
    net_stats_.Add(&serve::NetStats::closed_slow);
    CloseConnection(conn->id);
    return;
  }
  WriteReady(conn);  // Opportunistic flush; common case writes in full.
}

void Server::WriteReady(Connection* conn) {
  while (!conn->wbufs.empty()) {
    Connection::OutFrame& front = conn->wbufs.front();
    if (front.delay_ticks > 0) return;  // Held by the fault seam.
    const size_t remaining = front.bytes.size() - conn->woff;
    size_t allowed = remaining;
    if (config_.fault_plan != nullptr) {
      allowed = config_.fault_plan->ClampWrite(remaining);
    }
    const ssize_t n = ::send(conn->fd, front.bytes.data() + conn->woff,
                             allowed, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(conn->id);
      return;
    }
    net_stats_.Add(&serve::NetStats::bytes_out, static_cast<uint64_t>(n));
    conn->wbuf_bytes -= static_cast<size_t>(n);
    conn->woff += static_cast<size_t>(n);
    conn->last_write_progress = Clock::now();
    if (conn->woff < front.bytes.size()) return;  // Socket buffer full.
    if (front.is_response) {
      net_stats_.Add(&serve::NetStats::frames_out);
    }
    conn->wbufs.pop_front();
    conn->woff = 0;
  }
}

void Server::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) {
      // The connection died (slow client, protocol error, peer reset)
      // between submit and completion. A graceful drain never takes this
      // path — it waits for in-flight responses before closing anything.
      net_stats_.Add(&serve::NetStats::dropped_responses);
      continue;
    }
    Connection* conn = it->second.get();
    conn->inflight--;
    QueueWriteTagged(conn, std::move(completion.frame), /*is_response=*/true);
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  // Responses still owed (parsed but unanswered) or buffered-but-unsent
  // are lost with the connection; count them so a graceful drain can
  // prove it dropped nothing.
  uint64_t lost = static_cast<uint64_t>(conn->inflight);
  for (const Connection::OutFrame& frame : conn->wbufs) {
    if (frame.is_response) ++lost;
  }
  if (lost > 0) net_stats_.Add(&serve::NetStats::dropped_responses, lost);
  poller_->Watch(conn->fd, 0);
  ::close(conn->fd);
  net_stats_.Sub(&serve::NetStats::connections_active);
  connections_.erase(it);
}

void Server::TickFaultDelays() {
  if (config_.fault_plan == nullptr) return;
  std::vector<uint64_t> ready;
  for (const auto& [id, conn] : connections_) {
    // Only the front frame ages: held frames serialize behind it, which
    // keeps per-connection response bytes in completion order (the frame
    // *content* already correlates by request id).
    if (!conn->wbufs.empty() && conn->wbufs.front().delay_ticks > 0 &&
        --conn->wbufs.front().delay_ticks == 0) {
      ready.push_back(id);
    }
  }
  for (const uint64_t id : ready) {
    const auto it = connections_.find(id);
    if (it != connections_.end()) WriteReady(it->second.get());
  }
}

void Server::EnforceTimeouts() {
  if (config_.idle_timeout_ms == 0 && config_.write_stall_timeout_ms == 0) {
    return;
  }
  const Clock::time_point now = Clock::now();
  std::vector<std::pair<uint64_t, bool>> victims;  // (id, is_slow)
  for (const auto& [id, conn] : connections_) {
    if (config_.write_stall_timeout_ms > 0 && !conn->wbufs.empty() &&
        now - conn->last_write_progress >
            std::chrono::milliseconds(config_.write_stall_timeout_ms)) {
      victims.emplace_back(id, true);
      continue;
    }
    if (config_.idle_timeout_ms > 0 && conn->inflight == 0 &&
        conn->wbufs.empty() &&
        now - conn->last_read >
            std::chrono::milliseconds(config_.idle_timeout_ms)) {
      victims.emplace_back(id, false);
    }
  }
  for (const auto& [id, is_slow] : victims) {
    net_stats_.Add(is_slow ? &serve::NetStats::closed_slow
                           : &serve::NetStats::closed_idle);
    CloseConnection(id);
  }
}

serve::NetStats Server::stats() const { return net_stats_.Snapshot(); }

serve::RouterStats Server::StatsWithNet() const {
  serve::RouterStats stats = router_.stats();
  stats.has_net = true;
  stats.net = this->stats();
  if (config_.online_stats) {
    stats.online = config_.online_stats();
    stats.has_online = true;
  }
  stats.page = page_stats_.Snapshot();
  stats.has_page = stats.page.pages > 0;
  return stats;
}

}  // namespace rapid::net
