// perfbench — the repository benchmark.
//
//   perfbench --workload analyst|serve-loopback|serve-socket --seed N
//             --seconds S --trace 0|1 --workdir DIR [--shardd PATH]
//
// Runs whole passes of the workload's seeded stream until S seconds of timed
// passes have elapsed, checks every answer outside the timed phase, prints
// one line per metric (unit, sample count, base), and ends stdout with one
// JSON result line. --trace 0 reports the end-to-end metrics; --trace 1
// alternates traced and untraced passes, reports the per-layer metrics, and
// writes the recorded spans to DIR. Exits 0 only when every check passed.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool Flag(int argc, char** argv, int* i, const char* name, std::string* value) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "perfbench: %s needs a value\n", name);
    std::exit(2);
  }
  *value = argv[++*i];
  return true;
}

// Runs the benchmark, every thread it starts and its shard servers on one
// CPU: the highest-numbered one it may use. On a virtual machine shared with
// other guests, a thread woken on another virtual CPU waits for the host to
// run that CPU, and that wait swings by several times from minute to minute;
// on one CPU a handoff is a plain context switch. Returns what it did.
std::string PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "placement: not pinned (sched_getaffinity failed)";
  }
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (chosen < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    return "placement: not pinned (sched_setaffinity failed)";
  }
  return "placement: every thread and shard server on cpu " + std::to_string(chosen) +
         " of " + std::to_string(CPU_COUNT(&allowed)) + " allowed";
}

std::string SelfDirectory() {
  char path[4096];
  const ssize_t len = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (len <= 0) return ".";
  path[len] = '\0';
  std::string dir(path);
  return dir.substr(0, dir.rfind('/'));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argc, argv, &i, "--workload", &value)) {
      options.workload = value;
    } else if (Flag(argc, argv, &i, "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argc, argv, &i, "--seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(argc, argv, &i, "--trace", &value)) {
      options.trace = value == "1";
    } else if (Flag(argc, argv, &i, "--workdir", &value)) {
      options.workdir = value;
    } else if (Flag(argc, argv, &i, "--shardd", &value)) {
      options.shardd = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  const bool socket = options.workload == "serve-socket";
  if (options.workload != "analyst" && options.workload != "serve-loopback" && !socket) {
    std::fprintf(stderr, "perfbench: --workload must be analyst, serve-loopback or "
                         "serve-socket\n");
    return 2;
  }
  if (options.workdir.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --workdir and a positive --seconds are required\n");
    return 2;
  }
  if (options.shardd.empty()) options.shardd = SelfDirectory() + "/exsample_shardd";
  if (!perfbench::MakeDirs(options.workdir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", options.workdir.c_str());
    return 2;
  }
  perfbench::InstallSignalHandlers();
  // Before any thread or child process exists, so all of them inherit it.
  const std::string placement = PinToOneCpu();

  perfbench::SpanRecorder spans(options.trace);
  perfbench::WorkloadResult result =
      options.workload == "analyst" ? perfbench::RunAnalyst(options, &spans)
                                    : perfbench::RunServe(options, socket, &spans);
  result.report.Note(placement);
  if (options.trace) {
    // One file per workload, overwritten by the next traced run, so repeated
    // runs do not fill the checkout.
    const std::string path = options.workdir + "/spans-" + options.workload + ".tsv";
    if (spans.Write(path)) {
      result.report.Note("spans: " + std::to_string(spans.size()) + " written to " + path);
    } else {
      result.report.Fail("could not write spans to " + path);
    }
  }
  const std::string line =
      result.report.ResultLine(!options.trace, result.attempted, result.failed);
  std::fputs(result.report.HumanLines().c_str(), stdout);
  std::printf("%s\n", line.c_str());
  if (!result.report.failures().empty() || result.failed > 0) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %zu check(s) failed, %llu failed queries\n",
                 result.report.failures().size(),
                 static_cast<unsigned long long>(result.failed));
    return 1;
  }
  return 0;
}
