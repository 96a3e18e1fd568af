#ifndef EXSAMPLE_TESTUTIL_SHARDD_HARNESS_H_
#define EXSAMPLE_TESTUTIL_SHARDD_HARNESS_H_

#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace exsample {
namespace testutil {

/// \file
/// \brief Subprocess harness of the socket-transport suites: spawns real
/// `exsample_shardd` servers, discovers their ephemeral ports through the
/// port-file handshake, and kills/restarts them to inject the failures the
/// transport must infer. Header-only so the dist test and the dist bench
/// share one spawn recipe (both get the server path baked in as
/// `EXSAMPLE_SHARDD_PATH`).

/// \brief One `exsample_shardd` subprocess under test control.
class ShardServer {
 public:
  struct Options {
    /// Scenario recipe — must match the coordinator's fixture or the server
    /// (correctly) answers kRepoMismatch.
    uint64_t frames = 80000;
    uint64_t seed = 5;
    /// Fault injection: serve this many detect requests, then wedge
    /// (read but never answer). < 0: never.
    int64_t hang_after = -1;
    /// The server's RLIMIT_NOFILE, so a test can run it out of fds. 0: the
    /// harness's own limit.
    rlim_t max_open_files = 0;
  };

  ShardServer(std::string shardd_path, Options options)
      : shardd_path_(std::move(shardd_path)), options_(options) {
    Spawn(/*port=*/0);
  }

  ~ShardServer() { Kill(); }

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  int port() const { return port_; }
  std::string host() const { return "127.0.0.1:" + std::to_string(port_); }
  bool running() const { return pid_ > 0; }
  /// The server's process id while it runs (-1 once killed).
  pid_t pid() const { return pid_; }

  /// SIGKILLs the server and reaps it. Connections drop with no goodbye —
  /// exactly the silence the transport's failure inference must handle.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  /// Respawns a dead server on the port the first spawn bound, so a
  /// transport configured with the original host list reconnects to the
  /// revived server. The fresh process starts with empty session state —
  /// the coordinator's registration replay is what repopulates it.
  void Restart() {
    common::Check(pid_ <= 0, "Restart on a running shard server");
    common::Check(port_ > 0, "Restart before the first spawn bound a port");
    Spawn(port_);
  }

 private:
  void Spawn(int port) {
    // Unique-enough port-file name: pid of the test process plus a
    // monotonically increasing counter (restarts reuse the port but not the
    // file).
    static int counter = 0;
    port_file_ = "/tmp/exsample_shardd_" + std::to_string(::getpid()) + "_" +
                 std::to_string(++counter) + ".port";
    std::remove(port_file_.c_str());

    std::vector<std::string> args = {
        shardd_path_,
        "--port=" + std::to_string(port),
        "--port-file=" + port_file_,
        "--frames=" + std::to_string(options_.frames),
        "--seed=" + std::to_string(options_.seed),
    };
    if (options_.hang_after >= 0) {
      args.push_back("--hang-after=" + std::to_string(options_.hang_after));
    }

    // Flush before forking: whatever the harness's process has buffered on
    // stdio would otherwise be inherited by the child and flushed a second
    // time (duplicated bench output, confusingly interleaved logs).
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    common::Check(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: quiet stdout (the listening banner), keep stderr for
      // diagnosing a server that dies on startup.
      std::freopen("/dev/null", "w", stdout);
      if (options_.max_open_files > 0) {
        const rlimit limit{options_.max_open_files, options_.max_open_files};
        ::setrlimit(RLIMIT_NOFILE, &limit);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv exsample_shardd");
      std::_Exit(127);
    }
    pid_ = pid;

    // The port-file rename is the ready signal: once the file exists, the
    // server is listening. Scenario generation dominates startup, so the
    // window is generous.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      std::FILE* f = std::fopen(port_file_.c_str(), "r");
      if (f != nullptr) {
        int bound = 0;
        const int got = std::fscanf(f, "%d", &bound);
        std::fclose(f);
        if (got == 1 && bound > 0) {
          port_ = bound;
          break;
        }
      }
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        common::Check(false, "exsample_shardd died before binding its port");
      }
      common::Check(std::chrono::steady_clock::now() < deadline,
                    "timed out waiting for exsample_shardd to bind");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::remove(port_file_.c_str());
  }

  std::string shardd_path_;
  Options options_;
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// \brief Spawns one server per shard (all sharing one scenario recipe) and
/// exposes the transport's host list.
class ShardFleet {
 public:
  ShardFleet(const std::string& shardd_path, size_t num_shards,
             ShardServer::Options options = {}) {
    servers_.reserve(num_shards);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      servers_.push_back(std::make_unique<ShardServer>(shardd_path, options));
    }
  }

  std::vector<std::string> Hosts() const {
    std::vector<std::string> hosts;
    hosts.reserve(servers_.size());
    for (const auto& server : servers_) hosts.push_back(server->host());
    return hosts;
  }

  ShardServer& server(size_t shard) { return *servers_[shard]; }
  size_t size() const { return servers_.size(); }

 private:
  std::vector<std::unique_ptr<ShardServer>> servers_;
};

}  // namespace testutil
}  // namespace exsample

#endif  // EXSAMPLE_TESTUTIL_SHARDD_HARNESS_H_
