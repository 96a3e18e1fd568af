// exsample_shardd — standalone shard server of the socket transport.
//
// Speaks the versioned wire format over TCP: length-prefixed frames, the
// kinded envelope dispatched by PeekWireKind. Sessions are *materialized
// from messages*, never shared memory: a RegisterSessionMsg carries the
// detector options (seed included) and the repository fingerprint, and
// because SimulatedDetector is a pure per-frame function of (ground truth,
// options), a server that built the same scenario from the same
// (--frames, --seed) produces detections bit-identical to the
// coordinator's in-process run — the property the dist suite's
// socket lane enforces.
//
//   exsample_shardd --port=0 --port-file=/tmp/shard.port --frames=80000
//                   --seed=5 [--hang-after=K]
//   exsample_shardd --port=7001 --dataset=night-street --scale=0.1 --seed=1
//
//   --port=N        TCP port to listen on (0: ephemeral; see --port-file)
//   --port-file=P   write the bound port to P (temp file + rename, so a
//                   waiting coordinator never reads a partial write)
//   --frames=N      scenario size   (must match the coordinator's; default
//   --seed=N        scenario seed    80000 / 5 — datasets::BuildDistScenario)
//   --dataset=NAME  serve one of the evaluation datasets instead (substring
//                   match, like exsample_cli); with --scale and --seed it
//                   must mirror the coordinator's `--dataset --scale --seed`
//                   exactly — the repository fingerprint enforces that
//   --scale=S       dataset scale (default 0.1, exsample_cli's default)
//   --hang-after=K  fault injection: after serving K detect requests
//                   (across all connections), keep reading but stop
//                   answering — the up-but-wedged server only the
//                   coordinator's per-request deadline can detect
//
// An unknown flag, a missing =VALUE, or a malformed or out-of-range number
// (a port past 65535) exits 2, naming the flag.
//
// One thread serves every connection from one poll() loop. Each connection
// reads through the transport's FrameReader, so a peer that stalls mid-frame
// holds only the bytes it sent; each complete frame is served inline, and a
// reply that cannot leave within the coordinator's default request deadline
// drops its peer. Each connection owns its session registry, so a
// reconnecting coordinator starts from a clean slate and must replay its
// registrations (which the SocketTransport does on every connect).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/format.h"
#include "datasets/presets.h"
#include "datasets/scenarios.h"
#include "detect/detector.h"
#include "query/socket_transport.h"
#include "query/transport.h"
#include "query/wire.h"

namespace {

using namespace exsample;

struct ServerConfig {
  int port = 0;
  std::string port_file;
  uint64_t frames = 80000;
  uint64_t seed = 5;
  std::string dataset;
  double scale = 0.1;
  // < 0: never hang.
  int64_t hang_after = -1;
};

ServerConfig g_config;
const scene::GroundTruth* g_truth = nullptr;
uint64_t g_fingerprint = 0;
// Detect requests served across all connections (what --hang-after counts).
uint64_t g_detects_served = 0;

/// Per-connection session state: ids resolve to detectors this connection's
/// RegisterSessionMsg frames materialized. Shard-independent on purpose —
/// a SimulatedDetector's output depends only on (ground truth, options,
/// frame), so one detector serves whatever origin shard a request names
/// (including batches requeued off another shard).
class ConnectionRegistry : public query::SessionResolver {
 public:
  detect::ObjectDetector* Resolve(uint64_t session_id,
                                  uint32_t /*shard*/) const override {
    const auto it = sessions_.find(session_id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  void Register(uint64_t session_id, const detect::DetectorOptions& options) {
    sessions_[session_id] =
        std::make_unique<detect::SimulatedDetector>(g_truth, options);
  }

  void Unregister(uint64_t session_id) { sessions_.erase(session_id); }

 private:
  std::unordered_map<uint64_t, std::unique_ptr<detect::SimulatedDetector>>
      sessions_;
};

/// One coordinator connection: a blocking socket (a reply leaves whole),
/// the bytes received that do not yet form a frame, and the sessions this
/// connection registered.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  query::FrameReader reader;
  ConnectionRegistry registry;
};

bool Reply(int fd, const std::vector<uint8_t>& bytes) {
  return query::WriteFrame(fd, bytes).ok();
}

/// Serves one complete frame. Returns false when the connection must close.
bool Serve(Connection& conn, common::Span<const uint8_t> bytes) {
  const auto kind = query::PeekWireKind(bytes);
  if (!kind.ok()) return false;  // Unknown or corrupt envelope.
  switch (kind.value()) {
    case query::WireKind::kRegisterSession: {
      const auto msg = query::ParseRegisterSession(bytes);
      if (!msg.ok()) return false;
      query::SessionAckMsg ack;
      ack.session_id = msg.value().session_id;
      if (msg.value().repo_fingerprint != 0 &&
          msg.value().repo_fingerprint != g_fingerprint) {
        // Mis-deployment: this server was built over a different
        // repository than the coordinator queries. Refuse loudly — a
        // detector materialized here would silently diverge.
        ack.status = query::WireStatus::kRepoMismatch;
      } else {
        conn.registry.Register(msg.value().session_id,
                               msg.value().detector_options);
        ack.status = query::WireStatus::kOk;
      }
      return Reply(conn.fd, query::SerializeSessionAck(ack));
    }
    case query::WireKind::kUnregisterSession: {
      const auto msg = query::ParseUnregisterSession(bytes);
      if (!msg.ok()) return false;
      conn.registry.Unregister(msg.value().session_id);
      return true;  // Fire-and-forget: no ack.
    }
    case query::WireKind::kDetectRequest: {
      const auto msg = query::ParseDetectRequest(bytes);
      if (!msg.ok()) return false;
      if (g_config.hang_after >= 0 &&
          ++g_detects_served > static_cast<uint64_t>(g_config.hang_after)) {
        // Wedged-server fault injection: swallow the request. The
        // coordinator's per-request deadline is the only thing that can
        // notice — exactly the inference path under test.
        return true;
      }
      query::DetectResponseMsg response;
      if (msg.value().repo_fingerprint != 0 &&
          msg.value().repo_fingerprint != g_fingerprint) {
        response.wire_seq = msg.value().wire_seq;
        response.origin_shard = msg.value().origin_shard;
        response.attempt = msg.value().attempt;
        response.status = query::WireStatus::kRepoMismatch;
      } else {
        // kUnavailable (not a crash) for unregistered ids: a batch may
        // race a reconnect past the registration replay, and remote input
        // must never take the server down.
        response = query::ExecuteWireRequest(
            msg.value(), conn.registry, /*pool=*/nullptr,
            query::UnresolvedSlotPolicy::kUnavailable);
      }
      return Reply(conn.fd, query::SerializeDetectResponse(response));
    }
    default:
      return false;  // Response kinds arriving at a server: protocol bug.
  }
}

/// Serves every complete frame `conn` has sent. Returns false when the
/// connection must close: EOF, a read error, broken framing, or a frame
/// `Serve` refused.
bool ServeReadable(Connection& conn) {
  common::Span<const uint8_t> frame;
  for (;;) {
    const auto outcome = conn.reader.Next(conn.fd, &frame);
    if (outcome != query::FrameReader::Outcome::kFrame) {
      return outcome == query::FrameReader::Outcome::kPending;
    }
    if (!Serve(conn, frame)) return false;
  }
}

// Reads argv into g_config. An unknown flag, a missing =VALUE, or a value
// that is not one whole number in the flag's range (exsample_cli's rules,
// `common::ParseValue`) names the flag on stderr and returns false.
bool ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t number = 0;
    bool ok = eq != std::string::npos;
    if (name == "--port") {
      ok = ok && common::ParseValue(value, &number) && number <= 65535;
      g_config.port = static_cast<int>(number);
    } else if (name == "--port-file") {
      g_config.port_file = value;
    } else if (name == "--frames") {
      ok = ok && common::ParseValue(value, &g_config.frames);
    } else if (name == "--seed") {
      ok = ok && common::ParseValue(value, &g_config.seed);
    } else if (name == "--dataset") {
      g_config.dataset = value;
    } else if (name == "--scale") {
      ok = ok && common::ParseValue(value, &g_config.scale);
    } else if (name == "--hang-after") {
      ok = ok && common::ParseValue(value, &number) &&
           number <= static_cast<uint64_t>(INT64_MAX);
      g_config.hang_after = static_cast<int64_t>(number);
    } else {
      std::fprintf(stderr, "%s: unknown flag (see header comment)\n", name.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: %s '%s'\n", name.c_str(),
                   eq == std::string::npos ? "needs =VALUE, got" : "bad value",
                   value.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!ParseArgs(argc, argv)) return 2;

  // Two recipes, one contract: (--frames, --seed) rebuilds the dist-suite
  // scenario, (--dataset, --scale, --seed) rebuilds an evaluation dataset the
  // way exsample_cli does. Either way the coordinator's fingerprint check
  // verifies this server holds the repository its queries address.
  static std::unique_ptr<datasets::DistScenario> scenario;
  static std::unique_ptr<datasets::BuiltDataset> dataset;
  if (!g_config.dataset.empty()) {
    const datasets::DatasetSpec* spec = nullptr;
    static const std::vector<datasets::DatasetSpec> all =
        datasets::AllDatasetSpecs();
    for (const datasets::DatasetSpec& candidate : all) {
      if (candidate.name.find(g_config.dataset) != std::string::npos) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown dataset '%s'\n", g_config.dataset.c_str());
      return 1;
    }
    auto built =
        datasets::BuiltDataset::Build(*spec, g_config.seed, g_config.scale);
    if (!built.ok()) {
      std::fprintf(stderr, "dataset build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    dataset =
        std::make_unique<datasets::BuiltDataset>(std::move(built).value());
    g_truth = &dataset->truth();
    g_fingerprint = dataset->repo().Fingerprint();
  } else {
    scenario = std::make_unique<datasets::DistScenario>(
        datasets::BuildDistScenario(g_config.frames, g_config.seed));
    g_truth = &scenario->truth;
    g_fingerprint = scenario->repo.Fingerprint();
  }

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Non-blocking: a connection that resets between poll() and accept() must
  // not park the one thread in accept().
  ::fcntl(listener, F_SETFL, O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(g_config.port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 64) != 0) {
    std::perror("bind/listen");
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  if (!g_config.port_file.empty()) {
    // Temp file + rename: a coordinator polling for the file never observes
    // a partially written port.
    const std::string tmp = g_config.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::perror("port-file");
      return 1;
    }
    std::fprintf(f, "%d\n", port);
    std::fclose(f);
    if (std::rename(tmp.c_str(), g_config.port_file.c_str()) != 0) {
      std::perror("rename port-file");
      return 1;
    }
  }
  if (!g_config.dataset.empty()) {
    std::printf("exsample_shardd listening on 127.0.0.1:%d (dataset=%s "
                "scale=%.2f seed=%llu fingerprint=%llx)\n",
                port, g_config.dataset.c_str(), g_config.scale,
                static_cast<unsigned long long>(g_config.seed),
                static_cast<unsigned long long>(g_fingerprint));
  } else {
    std::printf("exsample_shardd listening on 127.0.0.1:%d (frames=%llu "
                "seed=%llu fingerprint=%llx)\n",
                port, static_cast<unsigned long long>(g_config.frames),
                static_cast<unsigned long long>(g_config.seed),
                static_cast<unsigned long long>(g_fingerprint));
  }
  std::fflush(stdout);

  // A reply that cannot leave within the coordinator's default request
  // deadline (past which it has given the batch up) drops its peer: a peer
  // that stops reading must not wedge the loop every connection shares.
  timeval send_timeout{};
  send_timeout.tv_sec = static_cast<time_t>(
      query::SocketTransportOptions().request_deadline_seconds);
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  // An accept that fails for want of an fd leaves the connection queued and
  // the listener readable: polling it then would spin. It rests (poll skips
  // a negative fd) until a connection closes or a short timeout passes.
  constexpr int kAcceptRetryMs = 100;
  bool listener_rests = false;
  for (;;) {
    fds.assign(1, pollfd{listener_rests ? -1 : listener, POLLIN, 0});
    for (const auto& conn : conns) fds.push_back(pollfd{conn->fd, POLLIN, 0});
    const int ready =
        ::poll(fds.data(), fds.size(), listener_rests ? kAcceptRetryMs : -1);
    if (ready == 0) listener_rests = false;
    if (ready <= 0) continue;  // The timeout, or EINTR.
    // fds[i + 1] polled conns[i]; serving back to front keeps that pairing
    // through the erases.
    for (size_t i = conns.size(); i-- > 0;) {
      if (fds[i + 1].revents != 0 && !ServeReadable(*conns[i])) {
        conns.erase(conns.begin() + i);
        listener_rests = false;
      }
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    listener_rests = fd < 0 && (errno == EMFILE || errno == ENFILE);
    if (fd < 0) continue;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    conns.push_back(std::make_unique<Connection>(fd));
  }
}
