// Shard-server lifecycle for the serve-socket workload: spawn, readiness,
// kill and reap on every exit path.
//
// Readiness is event-driven: each server's stdout is a pipe, and the server
// prints its listening banner only after it has bound its port and renamed
// its port file into place, so one blocking read replaces any sleep-poll.
// Port files live in the benchmark's work directory and carry this
// process's pid and a spawn counter, so concurrent or later runs never
// collide. Servers die with the benchmark: the destructor and the signal
// handlers kill and reap them, and PR_SET_PDEATHSIG covers a SIGKILLed
// benchmark.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kMaxServers = 64;
// Live server pids for the signal handlers (0 = free slot).
std::atomic<pid_t> g_servers[kMaxServers];

void Register(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_servers) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  common::Check(false, "too many shard servers");
}

void Unregister(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_servers) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void KillAndReap(pid_t pid) {
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

// Async-signal-safe: kill and reap every registered server, then die by the
// same signal with its default action.
void OnFatalSignal(int sig) {
  for (std::atomic<pid_t>& slot : g_servers) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) KillAndReap(pid);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

// Blocks until `fd` delivers a newline (true) or EOF, an error or the
// deadline (false).
bool AwaitLine(int fd, double deadline) {
  char buf[256];
  for (;;) {
    const double left = deadline - Now();
    if (left <= 0.0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    if (std::memchr(buf, '\n', static_cast<size_t>(got)) != nullptr) return true;
  }
}

int ReadPort(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  int port = 0;
  if (std::fscanf(f, "%d", &port) != 1) port = 0;
  std::fclose(f);
  return port;
}

}  // namespace

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

void InstallSignalHandlers() {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGABRT}) {
    struct sigaction action {};
    action.sa_handler = OnFatalSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(sig, &action, nullptr);
  }
}

common::Status ShardFleet::Start(const std::string& shardd,
                                 const std::string& workdir,
                                 const std::string& dataset, uint64_t seed,
                                 size_t count) {
  Stop();
  if (!MakeDirs(workdir)) {
    return common::Status::Internal("cannot create " + workdir);
  }
  static int spawns = 0;
  std::vector<std::string> port_files;
  std::vector<double> spawned_at;
  for (size_t k = 0; k < count; ++k) {
    const std::string port_file = workdir + "/shardd-" + std::to_string(::getpid()) +
                                  "-" + std::to_string(++spawns) + ".port";
    std::remove(port_file.c_str());
    std::vector<std::string> args = {shardd, "--port=0", "--port-file=" + port_file,
                                     "--dataset=" + dataset,
                                     "--scale=" + std::to_string(kScale),
                                     "--seed=" + std::to_string(seed)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) {
      Stop();
      return common::Status::Internal("pipe failed");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = ::getpid();
    const double start = Now();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      Stop();
      return common::Status::Internal("fork failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipefd[1]);
    Register(pid);
    Server server;
    server.pid = pid;
    server.stdout_fd = pipefd[0];
    servers_.push_back(server);
    port_files.push_back(port_file);
    spawned_at.push_back(start);
  }

  ready_seconds_.clear();
  const double deadline = Now() + 60.0;
  for (size_t k = 0; k < servers_.size(); ++k) {
    if (!AwaitLine(servers_[k].stdout_fd, deadline)) {
      Stop();
      return common::Status::Internal("exsample_shardd did not become ready: " +
                                         shardd);
    }
    ready_seconds_.push_back(Now() - spawned_at[k]);
    servers_[k].port = ReadPort(port_files[k]);
    std::remove(port_files[k].c_str());
    if (servers_[k].port <= 0) {
      Stop();
      return common::Status::Internal("exsample_shardd wrote no port");
    }
  }
  return common::Status::OK();
}

void ShardFleet::Stop() {
  for (Server& server : servers_) {
    ::kill(server.pid, SIGKILL);
    Unregister(server.pid);
    KillAndReap(server.pid);
    ::close(server.stdout_fd);
  }
  servers_.clear();
}

std::vector<std::string> ShardFleet::Hosts() const {
  std::vector<std::string> hosts;
  for (const Server& server : servers_) {
    hosts.push_back("127.0.0.1:" + std::to_string(server.port));
  }
  return hosts;
}

double ShardFleet::CpuSeconds() const {
  double total = 0.0;
  for (const Server& server : servers_) total += ProcessCpuSeconds(server.pid);
  return total;
}

}  // namespace perfbench
