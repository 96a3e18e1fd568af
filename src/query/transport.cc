#include "query/transport.h"

#include <chrono>
#include <utility>

#include "common/affinity.h"
#include "common/hash.h"

namespace exsample {
namespace query {

namespace {

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Deterministic uniform draw in [0, 1) keyed by the request's identity, so
/// fault injection and reordering are reproducible run to run.
double WireCoin(uint64_t seed, const DetectRequestMsg& msg, uint64_t salt) {
  uint64_t h = common::HashCombine(seed, msg.wire_seq);
  h = common::HashCombine(h, msg.attempt);
  h = common::HashCombine(h, salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

// --- SessionDirectory -------------------------------------------------------

void SessionDirectory::Register(uint64_t session_id, uint32_t shard,
                                detect::ObjectDetector* detector) {
  common::Check(detector != nullptr, "registering a null session detector");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<detect::ObjectDetector*>& per_shard = sessions_[session_id];
  if (per_shard.size() <= shard) per_shard.resize(shard + 1, nullptr);
  common::Check(per_shard[shard] == nullptr || per_shard[shard] == detector,
                "conflicting detector registered for a live session id");
  per_shard[shard] = detector;
}

detect::ObjectDetector* SessionDirectory::Resolve(uint64_t session_id,
                                                  uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end() || shard >= it->second.size()) return nullptr;
  return it->second[shard];
}

void SessionDirectory::Unregister(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session_id);
}

size_t SessionDirectory::NumSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

// --- Runner-side execution --------------------------------------------------

DetectResponseMsg ExecuteWireRequest(const DetectRequestMsg& request,
                                     const SessionResolver& resolver,
                                     common::ThreadPool* pool,
                                     UnresolvedSlotPolicy policy) {
  DetectResponseMsg response;
  response.wire_seq = request.wire_seq;
  response.origin_shard = request.origin_shard;
  response.attempt = request.attempt;
  response.status = WireStatus::kOk;
  response.detections.resize(request.slots.size());

  // Resolve on the driving thread (the resolver lock is cheap, but taking
  // it from every pool worker would serialize the fan-out), then detect
  // data-parallel: slots are independent and results land in fixed indices,
  // so pool size cannot change the response. A session's frames sit
  // together in a batch, so a slot of the previous slot's session reuses its
  // detector; batches up to `kInlineSlots` resolve without allocating.
  constexpr size_t kInlineSlots = 64;
  detect::ObjectDetector* inline_detectors[kInlineSlots] = {};
  std::vector<detect::ObjectDetector*> spilled;
  detect::ObjectDetector** detectors = inline_detectors;
  if (request.slots.size() > kInlineSlots) {
    spilled.resize(request.slots.size());
    detectors = spilled.data();
  }
  for (size_t i = 0; i < request.slots.size(); ++i) {
    const uint64_t session = request.slots[i].session_id;
    detectors[i] = i > 0 && session == request.slots[i - 1].session_id
                       ? detectors[i - 1]
                       : resolver.Resolve(session, request.origin_shard);
    if (detectors[i] == nullptr) {
      if (policy == UnresolvedSlotPolicy::kUnavailable) {
        response.status = WireStatus::kUnavailable;
        response.charged_seconds = 0.0;
        response.detections.clear();
        return response;
      }
      common::Check(false,
                    "wire request names an unregistered (session, shard)");
    }
    response.charged_seconds += detectors[i]->SecondsPerFrame();
  }
  const auto detect_one = [&](size_t i) {
    response.detections[i] = detectors[i]->Detect(request.slots[i].frame);
  };
  if (pool != nullptr) {
    pool->ParallelFor(request.slots.size(), detect_one);
  } else {
    for (size_t i = 0; i < request.slots.size(); ++i) detect_one(i);
  }
  return response;
}

// --- LocalTransport ---------------------------------------------------------

LocalTransport::LocalTransport(size_t num_shards,
                               std::vector<common::ThreadPool*> pools,
                               common::ThreadPool* default_pool)
    : pools_(std::move(pools)), default_pool_(default_pool) {
  common::Check(num_shards >= 1, "transport needs at least one shard");
  common::Check(pools_.empty() || pools_.size() == num_shards,
                "per-shard pools must cover every shard");
  if (pools_.empty()) pools_.resize(num_shards, nullptr);
}

void LocalTransport::BindLocalResolver(const SessionResolver* resolver) {
  resolver_ = resolver;
}

common::Status LocalTransport::RegisterSession(const RegisterSessionMsg& msg) {
  (void)msg;
  stats_.control_messages += 1;
  return common::Status::OK();
}

void LocalTransport::UnregisterSession(uint64_t session_id) {
  (void)session_id;
  stats_.control_messages += 1;
}

common::Status LocalTransport::Send(uint32_t runner_shard,
                                    const DetectRequestMsg& request) {
  common::Check(resolver_ != nullptr, "transport used before BindLocalResolver");
  if (runner_shard >= pools_.size()) {
    return common::Status::InvalidArgument("wire batch sent past the shards");
  }
  common::ThreadPool* pool =
      pools_[runner_shard] != nullptr ? pools_[runner_shard] : default_pool_;
  completed_.push_back(ExecuteWireRequest(request, *resolver_, pool));
  stats_.requests += 1;
  return common::Status::OK();
}

common::Result<DetectResponseMsg> LocalTransport::Receive() {
  if (completed_.empty()) {
    return common::Status::FailedPrecondition("no wire batch in flight");
  }
  DetectResponseMsg response = std::move(completed_.front());
  completed_.pop_front();
  stats_.responses += 1;
  return response;
}

// --- LoopbackTransport ------------------------------------------------------

namespace {

/// Inbox/outbox ring capacities. Sized for the steady state (device batches
/// in flight per shard), not the worst case — bursts beyond them take the
/// overflow lock, which is exactly the old behavior for every message.
constexpr size_t kInboxRingCapacity = 256;
constexpr size_t kOutboxRingCapacity = 1024;

}  // namespace

void LoopbackTransport::SpillQueue::Push(std::vector<uint8_t> bytes) {
  // Once anything spilled, later messages follow it through the overflow
  // until a consumer drains it — keeps per-queue FIFO order cheap (one
  // relaxed load on the fast path).
  if (overflow_size.load(std::memory_order_acquire) == 0 &&
      ring.TryPush(std::move(bytes))) {
    return;
  }
  std::lock_guard<std::mutex> lock(overflow_mu);
  overflow.push_back(std::move(bytes));
  overflow_size.fetch_add(1, std::memory_order_release);
}

bool LoopbackTransport::SpillQueue::TryPop(std::vector<uint8_t>& out) {
  if (ring.TryPop(out)) return true;
  if (overflow_size.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(overflow_mu);
  if (overflow.empty()) return false;
  out = std::move(overflow.front());
  overflow.pop_front();
  overflow_size.fetch_sub(1, std::memory_order_release);
  return true;
}

bool LoopbackTransport::SpillQueue::Empty() const {
  return ring.Empty() && overflow_size.load(std::memory_order_acquire) == 0;
}

LoopbackTransport::LoopbackTransport(size_t num_shards,
                                     std::vector<common::ThreadPool*> pools,
                                     LoopbackTransportOptions options)
    : options_(std::move(options)),
      pools_(std::move(pools)),
      outbox_(kOutboxRingCapacity) {
  common::Check(num_shards >= 1, "transport needs at least one shard");
  common::Check(pools_.empty() || pools_.size() == num_shards,
                "per-shard pools must cover every shard");
  if (pools_.empty()) pools_.resize(num_shards, nullptr);
  runners_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    runners_.push_back(std::make_unique<Runner>(kInboxRingCapacity));
  }
  // Start the runner threads only after every Runner exists: a runner never
  // touches another's state, but keeping construction fully ordered is free.
  for (uint32_t s = 0; s < num_shards; ++s) {
    runners_[s]->thread = std::thread([this, s] { RunnerLoop(s); });
    if (!options_.runner_cpus.empty()) {
      (void)common::affinity::PinThread(
          runners_[s]->thread,
          options_.runner_cpus[s % options_.runner_cpus.size()]);
    }
  }
}

LoopbackTransport::~LoopbackTransport() {
  for (auto& runner : runners_) {
    runner->stop.store(true, std::memory_order_seq_cst);
    runner->parker.WakeAll();
  }
  for (auto& runner : runners_) {
    if (runner->thread.joinable()) runner->thread.join();
  }
}

void LoopbackTransport::BindLocalResolver(const SessionResolver* resolver) {
  resolver_ = resolver;
}

common::Status LoopbackTransport::RegisterSession(const RegisterSessionMsg& msg) {
  // Broadcast to every runner: requeues may route any session's batch to any
  // surviving runner, so all of them need the session deployed. FIFO inbox
  // order makes the registration visible before any later detect batch.
  const std::vector<uint8_t> bytes = SerializeRegisterSession(msg);
  for (auto& runner : runners_) {
    std::vector<uint8_t> copy = bytes;
    stats_.control_messages += 1;
    stats_.bytes_sent += copy.size();
    runner->inbox.Push(std::move(copy));
    runner->parker.WakeOne();
  }
  return common::Status::OK();
}

void LoopbackTransport::UnregisterSession(uint64_t session_id) {
  UnregisterSessionMsg msg;
  msg.session_id = session_id;
  const std::vector<uint8_t> bytes = SerializeUnregisterSession(msg);
  for (auto& runner : runners_) {
    std::vector<uint8_t> copy = bytes;
    stats_.control_messages += 1;
    stats_.bytes_sent += copy.size();
    runner->inbox.Push(std::move(copy));
    runner->parker.WakeOne();
  }
}

common::Status LoopbackTransport::Send(uint32_t runner_shard,
                                       const DetectRequestMsg& request) {
  common::Check(resolver_ != nullptr, "transport used before BindLocalResolver");
  if (runner_shard >= runners_.size()) {
    return common::Status::InvalidArgument("wire batch sent past the shards");
  }
  // The one serialization point on the send path: from here to the response
  // parse, the batch exists only as bytes.
  std::vector<uint8_t> bytes = SerializeDetectRequest(request);
  stats_.requests += 1;
  stats_.bytes_sent += bytes.size();
  in_flight_ += 1;
  Runner& runner = *runners_[runner_shard];
  runner.inbox.Push(std::move(bytes));
  runner.parker.WakeOne();  // Syscall only if the runner actually parked.
  return common::Status::OK();
}

common::Result<DetectResponseMsg> LoopbackTransport::Receive() {
  if (in_flight_ == 0) {
    return common::Status::FailedPrecondition("no wire batch in flight");
  }
  // A response is guaranteed to arrive (in_flight_ > 0 and runners answer
  // everything they accept): spin briefly, then park.
  std::vector<uint8_t> bytes;
  int idle_spins = 0;
  while (!outbox_.TryPop(bytes)) {
    if (++idle_spins < common::Parker::kSpinIterations) {
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    common::Parker::WaitGuard guard(out_parker_);
    if (outbox_.TryPop(bytes)) break;
    guard.Wait();
  }
  in_flight_ -= 1;
  stats_.responses += 1;
  stats_.bytes_received += bytes.size();
  auto response =
      ParseDetectResponse(common::Span<const uint8_t>(bytes.data(), bytes.size()));
  // In-process, an unparseable response is a wire-format bug, not weather.
  common::CheckOk(response.status(), "loopback response failed to parse");
  if (response.value().status != WireStatus::kOk) {
    // Every loopback failure is an injected one.
    stats_.failures_injected += 1;
  }
  return response;
}

void LoopbackTransport::RunnerLoop(uint32_t shard) {
  Runner& runner = *runners_[shard];
  int idle_spins = 0;
  while (true) {
    std::vector<uint8_t> bytes;
    while (!runner.inbox.TryPop(bytes)) {
      // Drain before exiting: a request accepted by Send is always answered,
      // so the coordinator can never block forever in Receive.
      if (runner.stop.load(std::memory_order_seq_cst)) return;
      if (++idle_spins < common::Parker::kSpinIterations) {
        std::this_thread::yield();
        continue;
      }
      idle_spins = 0;
      common::Parker::WaitGuard guard(runner.parker);
      if (!runner.inbox.Empty() ||
          runner.stop.load(std::memory_order_seq_cst)) {
        continue;  // Re-check via TryPop / the stop branch above.
      }
      guard.Wait();
    }
    idle_spins = 0;

    // One envelope, many kinds: control frames and detect batches share the
    // inbox, dispatched by the framed header — exactly what a socket server
    // does with the same helpers.
    const common::Span<const uint8_t> frame(bytes.data(), bytes.size());
    auto kind = PeekWireKind(frame);
    common::CheckOk(kind.status(), "loopback frame failed to parse");
    if (kind.value() == WireKind::kRegisterSession) {
      auto reg = ParseRegisterSession(frame);
      common::CheckOk(reg.status(), "loopback registration failed to parse");
      runner.registered_sessions.insert(reg.value().session_id);
      continue;
    }
    if (kind.value() == WireKind::kUnregisterSession) {
      auto unreg = ParseUnregisterSession(frame);
      common::CheckOk(unreg.status(), "loopback unregister failed to parse");
      runner.registered_sessions.erase(unreg.value().session_id);
      continue;
    }
    common::Check(kind.value() == WireKind::kDetectRequest,
                  "unexpected wire kind in a loopback runner inbox");
    auto parsed = ParseDetectRequest(frame);
    common::CheckOk(parsed.status(), "loopback request failed to parse");
    const DetectRequestMsg& request = parsed.value();
    // The control-plane contract: every slot's session must have been
    // deployed to this runner before the batch referencing it.
    for (const WireSlot& slot : request.slots) {
      common::Check(runner.registered_sessions.count(slot.session_id) != 0,
                    "wire batch references a session never registered with "
                    "this runner");
    }
    runner.requests_served += 1;

    SleepSeconds(options_.latency_seconds);

    DetectResponseMsg response;
    response.wire_seq = request.wire_seq;
    response.origin_shard = request.origin_shard;
    response.attempt = request.attempt;
    const bool fingerprint_mismatch =
        options_.expected_fingerprint != 0 && request.repo_fingerprint != 0 &&
        request.repo_fingerprint != options_.expected_fingerprint;
    const bool shard_dead =
        options_.fail_shard >= 0 &&
        shard == static_cast<uint32_t>(options_.fail_shard) &&
        runner.requests_served > options_.fail_after_requests;
    const bool transient_failure =
        options_.failure_rate > 0.0 &&
        WireCoin(options_.seed, request, shard) < options_.failure_rate;
    if (fingerprint_mismatch) {
      response.status = WireStatus::kRepoMismatch;
    } else if (shard_dead || transient_failure) {
      response.status = WireStatus::kUnavailable;
    } else {
      response = ExecuteWireRequest(request, *resolver_, pools_[shard]);
    }

    if (options_.reorder_jitter_seconds > 0.0) {
      SleepSeconds(WireCoin(options_.seed, request, 0x9e1u + shard) *
                   options_.reorder_jitter_seconds);
    }

    std::vector<uint8_t> out_bytes = SerializeDetectResponse(response);
    outbox_.Push(std::move(out_bytes));
    out_parker_.WakeOne();  // Syscall only if the coordinator parked.
  }
}

}  // namespace query
}  // namespace exsample
