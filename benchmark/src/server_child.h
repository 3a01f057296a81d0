#ifndef RAPID_BENCHMARK_SERVER_CHILD_H_
#define RAPID_BENCHMARK_SERVER_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace rbench {

// The program under test, run in a forked child so its memory and CPU are
// its own: the child builds the catalog, trains and snapshots RAPID-pro,
// and serves slot "main" through `net::Server` over `serve::ServingRouter`
// (result cache on, FeedbackLog + OnlineTrainer attached), exactly as a
// deployment would start. Fork only while the calling process has a single
// thread.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Forks the child and blocks until it reports its listening port.
  // `snapshot_path` receives the trained model; `trainer_snapshot_path` is
  // where the online trainer writes each republished model. False when the
  // child could not be started or died during set-up.
  bool Start(const std::string& snapshot_path,
             const std::string& trainer_snapshot_path);

  uint16_t port() const { return port_; }

  // Tells the child to drain and exit, and reaps it (killing it if it
  // has not exited after a grace period). True on a clean exit with status
  // 0. `*max_rss_kib` receives the child's peak resident set. Idempotent.
  bool Stop(long* max_rss_kib = nullptr);

 private:
  pid_t pid_ = -1;
  int ctl_fd_ = -1;  // Closing it tells the child to exit.
  uint16_t port_ = 0;
};

}  // namespace rbench

#endif  // RAPID_BENCHMARK_SERVER_CHILD_H_
