#include "server_child.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "catalog.h"
#include "net/server.h"
#include "online/feedback.h"
#include "online/trainer.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rbench {

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "[server] set-up failed: %s\n", what);
  std::_Exit(2);
}

[[noreturn]] void ServeChild(const std::string& snapshot_path,
                             const std::string& trainer_snapshot_path,
                             int port_fd, int ctl_fd) {
  using namespace rapid;
  const data::Dataset data = MakeCatalog();
  if (!TrainSnapshot(data, snapshot_path)) Fail("snapshot save");

  serve::RouterConfig router_config;
  router_config.cache.enabled = true;
  serve::ServingRouter router(data, router_config);
  if (router.LoadSlot("main", snapshot_path) == 0) Fail("LoadSlot");

  online::FeedbackLog log;
  std::unique_ptr<rerank::NeuralReranker> trainer_model =
      serve::Snapshot::LoadAny(snapshot_path, data);
  if (!trainer_model) Fail("trainer snapshot load");
  online::OnlineTrainerConfig trainer_config;
  trainer_config.slot = "main";
  trainer_config.snapshot_path = trainer_snapshot_path;
  online::OnlineTrainer trainer(data, &router, &log, std::move(trainer_model),
                                trainer_config);

  net::ServerConfig server_config;
  server_config.feedback_log = &log;
  server_config.online_stats = [&trainer] { return trainer.Stats(); };
  net::Server server(router, server_config);
  if (!server.Start()) Fail("server start");
  trainer.Start();

  const uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) Fail("port pipe");
  ::close(port_fd);

  char byte = 0;
  ssize_t n = 0;
  while ((n = ::read(ctl_fd, &byte, 1)) > 0 || (n < 0 && errno == EINTR)) {
  }
  server.Stop();
  trainer.Stop();
  log.Close();
  router.Shutdown();
  std::_Exit(0);
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& snapshot_path,
                          const std::string& trainer_snapshot_path) {
  int port_pipe[2];
  int ctl_pipe[2];
  if (::pipe(port_pipe) != 0) return false;
  if (::pipe(ctl_pipe) != 0) {
    ::close(port_pipe[0]);
    ::close(port_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {port_pipe[0], port_pipe[1], ctl_pipe[0], ctl_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(ctl_pipe[1]);
    ServeChild(snapshot_path, trainer_snapshot_path, port_pipe[1],
               ctl_pipe[0]);
  }
  ::close(port_pipe[1]);
  ::close(ctl_pipe[0]);
  pid_ = pid;
  ctl_fd_ = ctl_pipe[1];
  ssize_t n = 0;
  do {
    n = ::read(port_pipe[0], &port_, sizeof(port_));
  } while (n < 0 && errno == EINTR);
  ::close(port_pipe[0]);
  return n == sizeof(port_);
}

bool ServerProcess::Stop(long* max_rss_kib) {
  if (pid_ < 0) return true;
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
  ctl_fd_ = -1;
  int status = 0;
  rusage usage{};
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool clean = done == pid_;
  if (done == 0) {
    std::fprintf(stderr, "[server] child did not exit; killing it\n");
    ::kill(pid_, SIGKILL);
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  if (max_rss_kib != nullptr) *max_rss_kib = usage.ru_maxrss;
  return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace rbench
