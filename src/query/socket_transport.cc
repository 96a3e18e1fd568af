#include "query/socket_transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>

namespace exsample {
namespace query {

namespace {

void EncodeFrameHeader(size_t size, uint8_t* header) {
  const uint32_t value = static_cast<uint32_t>(size);
  header[0] = static_cast<uint8_t>(value);
  header[1] = static_cast<uint8_t>(value >> 8);
  header[2] = static_cast<uint8_t>(value >> 16);
  header[3] = static_cast<uint8_t>(value >> 24);
}

uint32_t DecodeFrameHeader(const uint8_t* header) {
  return static_cast<uint32_t>(header[0]) |
         static_cast<uint32_t>(header[1]) << 8 |
         static_cast<uint32_t>(header[2]) << 16 |
         static_cast<uint32_t>(header[3]) << 24;
}

/// One frame on its way out: header and payload go to the kernel together,
/// as two iovecs of one `sendmsg`, so a frame costs the peer one wakeup.
class OutgoingFrame {
 public:
  explicit OutgoingFrame(common::Span<const uint8_t> payload)
      : payload_(payload) {
    EncodeFrameHeader(payload.size(), header_);
  }

  bool done() const { return sent_ == kFrameHeaderBytes + payload_.size(); }

  /// One `sendmsg` of the unsent tail. Returns its result (errno set on -1).
  /// MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE, not
  /// kill the process with SIGPIPE.
  ssize_t SendSome(int fd, int flags) {
    iovec iov[2];
    size_t count = 0;
    if (sent_ < kFrameHeaderBytes) {
      iov[count].iov_base = header_ + sent_;
      iov[count].iov_len = kFrameHeaderBytes - sent_;
      ++count;
    }
    const size_t payload_sent =
        sent_ > kFrameHeaderBytes ? sent_ - kFrameHeaderBytes : 0;
    if (payload_sent < payload_.size()) {
      iov[count].iov_base = const_cast<uint8_t*>(payload_.data() + payload_sent);
      iov[count].iov_len = payload_.size() - payload_sent;
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, flags | MSG_NOSIGNAL);
    if (n > 0) sent_ += static_cast<size_t>(n);
    return n;
  }

 private:
  common::Span<const uint8_t> payload_;
  uint8_t header_[kFrameHeaderBytes] = {};
  size_t sent_ = 0;
};

/// Parses a "host:port" shard endpoint. The host is a numeric IPv4 address
/// or "localhost" (empty means localhost too); the port is decimal, 1..65535.
/// A malformed entry is a deployment error, reported by name.
common::Result<sockaddr_in> ParseEndpoint(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  const std::string digits =
      colon == std::string::npos ? std::string() : endpoint.substr(colon + 1);
  const bool numeric =
      !digits.empty() && digits.size() <= 5 &&
      std::all_of(digits.begin(), digits.end(),
                  [](char c) { return c >= '0' && c <= '9'; });
  const long port = numeric ? std::strtol(digits.c_str(), nullptr, 10) : 0;
  if (port < 1 || port > 65535) {
    return common::Status::FailedPrecondition(
        "shard host '" + endpoint + "' must be host:port with a port in 1..65535");
  }
  std::string host = endpoint.substr(0, colon);
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return common::Status::FailedPrecondition(
        "shard host '" + endpoint +
        "' must be a numeric IPv4 address or localhost");
  }
  return addr;
}

/// Connect with a poll-bounded handshake. Returns the connected fd, left
/// non-blocking, or -1.
int ConnectWithTimeout(const sockaddr_in& addr, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
    if (timeout_ms < 1) timeout_ms = 1;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  // The coordinator's frames are latency-sensitive and tiny; never Nagle.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Milliseconds `poll` may wait for `deadline`, rounded up so a wait never
/// ends just short of it; -1 (forever) for `time_point::max()`.
int PollTimeoutMs(std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) return -1;
  const double ms = std::ceil(std::chrono::duration<double, std::milli>(
                                  deadline - std::chrono::steady_clock::now())
                                  .count());
  if (ms <= 0.0) return 0;
  return ms >= static_cast<double>(INT_MAX) ? INT_MAX : static_cast<int>(ms);
}

std::chrono::steady_clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Least free space a connection's input buffer offers a read: one `recv`
/// takes a wave's worth of typical responses (a few hundred bytes each).
constexpr size_t kReadChunkBytes = 16 << 10;

}  // namespace

common::Status WriteFrame(int fd, common::Span<const uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) {
    return common::Status::InvalidArgument("wire frame exceeds the size bound");
  }
  OutgoingFrame frame(payload);
  while (!frame.done()) {
    const ssize_t n = frame.SendSome(fd, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return common::Status::Internal("socket write failed");
    }
    if (n == 0) return common::Status::Internal("socket write made no progress");
  }
  return common::Status::OK();
}

FrameReader::Outcome FrameReader::Next(int fd,
                                       common::Span<const uint8_t>* frame) {
  for (;;) {
    const size_t held = end_ - begin_;
    size_t missing = 0;  // What a buffered partial frame still lacks.
    if (held >= kFrameHeaderBytes) {
      const size_t size = DecodeFrameHeader(in_.data() + begin_);
      if (size > kMaxFrameBytes) return Outcome::kDrop;
      if (held - kFrameHeaderBytes >= size) {
        *frame = common::Span<const uint8_t>(
            in_.data() + begin_ + kFrameHeaderBytes, size);
        begin_ += kFrameHeaderBytes + size;
        return Outcome::kFrame;
      }
      missing = kFrameHeaderBytes + size - held;
    }
    if (drained_) {
      drained_ = false;
      return Outcome::kPending;
    }
    // Room for one read: move the partial frame (if any) to the front, and
    // grow toward what the frame still lacks by at most what is held.
    if (begin_ > 0) {
      std::memmove(in_.data(), in_.data() + begin_, held);
      begin_ = 0;
      end_ = held;
    }
    const size_t want = std::max(kReadChunkBytes, std::min(missing, held));
    if (in_.size() - end_ < want) in_.resize(end_ + want);

    const size_t room = in_.size() - end_;
    const ssize_t n = ::recv(fd, in_.data() + end_, room, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Outcome::kPending;
    }
    if (n <= 0) return Outcome::kDrop;  // EOF, or a reset or other error.
    end_ += static_cast<size_t>(n);
    drained_ = static_cast<size_t>(n) < room;
  }
}

// --- SocketTransport --------------------------------------------------------

SocketTransport::SocketTransport(size_t num_shards,
                                 SocketTransportOptions options)
    : options_(std::move(options)) {
  // Connections are opened lazily (first RegisterSession/Send), so the
  // transport can be constructed before the fleet is up. Endpoints are
  // parsed now: a fleet of the wrong size, or the first malformed endpoint,
  // fails every registration.
  if (options_.hosts.size() != num_shards) {
    hosts_status_ = common::Status::FailedPrecondition(
        std::to_string(options_.hosts.size()) + " shard hosts for " +
        std::to_string(num_shards) + " shards");
  }
  conns_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    conns_.push_back(std::make_unique<Conn>());
    if (s >= options_.hosts.size()) continue;
    common::Result<sockaddr_in> addr = ParseEndpoint(options_.hosts[s]);
    if (addr.ok()) {
      conns_.back()->addr = addr.value();
    } else if (hosts_status_.ok()) {
      hosts_status_ = addr.status();
    }
  }
}

SocketTransport::~SocketTransport() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

bool SocketTransport::EnsureConnectedLocked(uint32_t shard,
                                            Clock::time_point now, Lock& lock) {
  Conn& conn = *conns_[shard];
  if (conn.fd >= 0) return true;
  if (!hosts_status_.ok()) return false;  // A malformed fleet never connects.
  if (now < conn.next_attempt) return false;  // Backoff window: fail fast.
  const int fd = ConnectWithTimeout(conn.addr, options_.connect_timeout_seconds);
  if (fd < 0) {
    conn.backoff_seconds =
        conn.backoff_seconds <= 0.0
            ? options_.reconnect_backoff_seconds
            : std::min(conn.backoff_seconds * 2.0,
                       options_.reconnect_backoff_max_seconds);
    conn.next_attempt = now + Seconds(conn.backoff_seconds);
    return false;
  }
  conn.fd = fd;
  conn.backoff_seconds = 0.0;
  conn.next_attempt = Clock::time_point::min();
  if (conn.ever_connected) {
    ++stats_.reconnects;
  } else {
    conn.ever_connected = true;
    ++stats_.connects;
  }
  // Deployment replay: a fresh connection (a restarted server) holds no
  // session state, so every live session's registration crosses before any
  // detect frame — TCP's in-order delivery makes the order a guarantee.
  for (const auto& session : live_sessions_) {
    if (!WriteFrameLocked(shard,
                          common::Span<const uint8_t>(session.second.data(),
                                                      session.second.size()),
                          lock)) {
      conn.backoff_seconds = options_.reconnect_backoff_seconds;
      conn.next_attempt = now + Seconds(conn.backoff_seconds);
      return false;
    }
    ++stats_.control_messages;
    stats_.bytes_sent += session.second.size();
  }
  return true;
}

void SocketTransport::MarkDisconnectedLocked(uint32_t shard) {
  Conn& conn = *conns_[shard];
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  conn.pending_acks.clear();
  conn.reader = FrameReader();
  // A dropped connection is a failure signal for everything riding it:
  // synthesize kUnavailable completions now instead of waiting for each
  // batch's deadline to expire.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.shard == shard) {
      SynthesizeFailureLocked(it->first, it->second);
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketTransport::SynthesizeFailureLocked(uint64_t wire_seq,
                                              const InFlightEntry& entry) {
  DetectResponseMsg response;
  response.wire_seq = wire_seq;
  response.origin_shard = entry.origin_shard;
  response.attempt = entry.attempt;
  response.status = WireStatus::kUnavailable;
  completed_.push_back(std::move(response));
  ++stats_.inferred_failures;
}

bool SocketTransport::WriteFrameLocked(uint32_t shard,
                                       common::Span<const uint8_t> payload,
                                       Lock& lock) {
  Conn& conn = *conns_[shard];
  if (payload.size() > kMaxFrameBytes) {  // The peer would refuse it.
    MarkDisconnectedLocked(shard);
    return false;
  }
  OutgoingFrame frame(payload);
  Clock::time_point deadline =
      Clock::now() + Seconds(options_.request_deadline_seconds);
  while (conn.fd >= 0) {
    const ssize_t n = frame.SendSome(conn.fd, MSG_DONTWAIT);
    if (n > 0) {
      if (frame.done()) return true;
      deadline = Clock::now() + Seconds(options_.request_deadline_seconds);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) break;
    // The kernel has no room: the peer is not reading, possibly because it
    // is blocked writing responses to us. Keep reading this connection while
    // waiting for room, or a wave larger than the socket buffers would stall
    // both processes.
    if (Clock::now() >= deadline) break;  // No progress: give the peer up.
    pollfd pfd{};
    pfd.fd = conn.fd;
    pfd.events = POLLIN | POLLOUT;
    lock.unlock();
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    lock.lock();
    if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ReadLocked(shard);
    }
  }
  MarkDisconnectedLocked(shard);
  return false;
}

void SocketTransport::PollLocked(Clock::time_point deadline, Lock& lock) {
  // Indexed by shard; poll() skips the negative fds of disconnected shards.
  std::vector<pollfd> fds(conns_.size());
  for (size_t s = 0; s < conns_.size(); ++s) {
    fds[s].fd = conns_[s]->fd;
    fds[s].events = POLLIN;
  }
  lock.unlock();
  const int rc = ::poll(fds.data(), fds.size(), PollTimeoutMs(deadline));
  lock.lock();
  if (rc <= 0) return;  // Timeout or EINTR: the caller re-checks deadlines.
  for (uint32_t s = 0; s < conns_.size(); ++s) {
    if (fds[s].revents == 0) continue;
    ReadLocked(s);
    // A hang-up may still deliver the peer's last frames, which the read
    // above dispatched; then the connection is done.
    if ((fds[s].revents & (POLLHUP | POLLERR)) != 0) MarkDisconnectedLocked(s);
  }
}

void SocketTransport::ReadLocked(uint32_t shard) {
  Conn& conn = *conns_[shard];
  common::Span<const uint8_t> frame;
  for (;;) {
    const FrameReader::Outcome outcome = conn.reader.Next(conn.fd, &frame);
    if (outcome == FrameReader::Outcome::kPending) return;
    if (outcome == FrameReader::Outcome::kDrop ||
        !DispatchFrameLocked(shard, frame)) {
      MarkDisconnectedLocked(shard);
      return;
    }
  }
}

common::Status SocketTransport::RegisterSession(const RegisterSessionMsg& msg) {
  if (!hosts_status_.ok()) return hosts_status_;
  Lock lock(mu_);
  std::vector<uint8_t> bytes = SerializeRegisterSession(msg);
  const common::Span<const uint8_t> frame(bytes.data(), bytes.size());
  live_sessions_.emplace_back(msg.session_id, bytes);
  const Clock::time_point deadline =
      Clock::now() + Seconds(options_.register_ack_deadline_seconds);
  std::vector<uint32_t> awaiting;
  for (uint32_t s = 0; s < conns_.size(); ++s) {
    const bool was_connected = conns_[s]->fd >= 0;
    if (!EnsureConnectedLocked(s, Clock::now(), lock)) {
      // Unreachable runner: not an error — the registration replays on
      // reconnect, and an unreachable shard surfaces through the detect
      // path's failure inference, where retry/requeue can handle it.
      continue;
    }
    if (was_connected) {
      // A fresh connection already got the frame via the replay above.
      if (!WriteFrameLocked(s, frame, lock)) continue;
      ++stats_.control_messages;
      stats_.bytes_sent += bytes.size();
    }
    awaiting.push_back(s);
  }
  // Wait (bounded) for every shard's ack so a mis-deployment fails the
  // session before any detect work is charged. The shards ack in parallel.
  for (;;) {
    for (auto it = awaiting.begin(); it != awaiting.end();) {
      Conn& conn = *conns_[*it];
      const auto ack = conn.pending_acks.find(msg.session_id);
      if (ack != conn.pending_acks.end()) {
        const WireStatus status = ack->second;
        conn.pending_acks.erase(ack);
        if (status == WireStatus::kRepoMismatch) {
          return common::Status::FailedPrecondition(
              "shard server repository fingerprint mismatch (mis-deployment)");
        }
        it = awaiting.erase(it);
      } else if (conn.fd < 0) {
        it = awaiting.erase(it);  // Dropped: the replay re-deploys it.
      } else {
        ++it;
      }
    }
    if (awaiting.empty() || Clock::now() >= deadline) break;
    PollLocked(deadline, lock);
  }
  return common::Status::OK();
}

void SocketTransport::UnregisterSession(uint64_t session_id) {
  Lock lock(mu_);
  for (auto it = live_sessions_.begin(); it != live_sessions_.end();) {
    if (it->first == session_id) {
      it = live_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  UnregisterSessionMsg msg;
  msg.session_id = session_id;
  const std::vector<uint8_t> bytes = SerializeUnregisterSession(msg);
  for (uint32_t s = 0; s < conns_.size(); ++s) {
    // Fire-and-forget, connected shards only: a down server holds no state
    // once it restarts (the replay set no longer has this session).
    if (conns_[s]->fd < 0) continue;
    if (!WriteFrameLocked(
            s, common::Span<const uint8_t>(bytes.data(), bytes.size()), lock)) {
      continue;
    }
    ++stats_.control_messages;
    stats_.bytes_sent += bytes.size();
  }
}

common::Status SocketTransport::Send(uint32_t runner_shard,
                                     const DetectRequestMsg& request) {
  Lock lock(mu_);
  common::Check(runner_shard < conns_.size(),
                "socket send addresses an unknown shard");
  ++stats_.requests;
  const Clock::time_point now = Clock::now();
  InFlightEntry entry;
  entry.shard = runner_shard;
  entry.origin_shard = request.origin_shard;
  entry.attempt = request.attempt;
  entry.slots = request.slots.size();
  entry.deadline = now + Seconds(options_.request_deadline_seconds);
  if (!EnsureConnectedLocked(runner_shard, now, lock)) {
    // Unreachable (or inside its backoff window): infer the failure now so
    // the service's retry/requeue machinery moves on immediately.
    SynthesizeFailureLocked(request.wire_seq, entry);
    return common::Status::OK();
  }
  const std::vector<uint8_t> bytes = SerializeDetectRequest(request);
  if (!WriteFrameLocked(runner_shard,
                        common::Span<const uint8_t>(bytes.data(), bytes.size()),
                        lock)) {
    // The dropped connection already failed whatever else rode it.
    SynthesizeFailureLocked(request.wire_seq, entry);
    return common::Status::OK();
  }
  stats_.bytes_sent += bytes.size();
  inflight_[request.wire_seq] = entry;
  return common::Status::OK();
}

common::Result<DetectResponseMsg> SocketTransport::Receive() {
  Lock lock(mu_);
  for (;;) {
    if (!completed_.empty()) {
      DetectResponseMsg response = std::move(completed_.front());
      completed_.pop_front();
      ++stats_.responses;
      return response;
    }
    if (inflight_.empty()) {
      return common::Status::FailedPrecondition("no wire batch in flight");
    }
    // Deadline-based failure inference: give up on every batch whose
    // deadline passed (a server that is up but wedged produces no other
    // signal), then wait for input until the next-earliest deadline.
    const Clock::time_point now = Clock::now();
    Clock::time_point earliest = Clock::time_point::max();
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->second.deadline <= now) {
        SynthesizeFailureLocked(it->first, it->second);
        it = inflight_.erase(it);
      } else {
        earliest = std::min(earliest, it->second.deadline);
        ++it;
      }
    }
    if (!completed_.empty()) continue;
    PollLocked(earliest, lock);
  }
}

size_t SocketTransport::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size() + completed_.size();
}

TransportStats SocketTransport::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool SocketTransport::DispatchFrameLocked(uint32_t shard,
                                          common::Span<const uint8_t> frame) {
  const common::Result<WireKind> kind = PeekWireKind(frame);
  if (!kind.ok()) return false;
  switch (kind.value()) {
    case WireKind::kDetectResponse: {
      common::Result<DetectResponseMsg> response = ParseDetectResponse(frame);
      if (!response.ok()) return false;
      const auto it = inflight_.find(response.value().wire_seq);
      if (it == inflight_.end() || it->second.shard != shard ||
          it->second.attempt != response.value().attempt) {
        // The batch was already given up on (deadline inference) and a
        // retry may have superseded this attempt — the late answer is
        // dropped, never double-delivered.
        ++stats_.late_responses_dropped;
        return true;
      }
      if (response.value().status == WireStatus::kOk &&
          response.value().detections.size() != it->second.slots) {
        // Answers for slots the batch does not have (or none for slots it
        // does) cannot be scattered back: a protocol violation. The caller
        // drops the connection, which infers this batch unavailable.
        return false;
      }
      stats_.bytes_received += frame.size();
      completed_.push_back(std::move(response).value());
      inflight_.erase(it);
      return true;
    }
    case WireKind::kSessionAck: {
      common::Result<SessionAckMsg> ack = ParseSessionAck(frame);
      if (!ack.ok()) return false;
      // Replayed registrations produce acks nobody waits for; they stay
      // here until the connection drops.
      conns_[shard]->pending_acks[ack.value().session_id] = ack.value().status;
      return true;
    }
    default:
      // Request kinds arriving at the coordinator are a protocol violation.
      return false;
  }
}

}  // namespace query
}  // namespace exsample
