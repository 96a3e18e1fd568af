#include "query/detector_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace exsample {
namespace query {

namespace {

/// Monotonic wall clock in seconds (ticket latency, flush deadlines). Wall
/// clock never feeds the trace — simulated seconds do — so reading it here
/// cannot perturb determinism.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServiceStatsBinding ServiceStatsBinding::Bind(stats::CounterRegistry* registry,
                                              stats::CounterSlab* slab,
                                              stats::StageTimer* timer) {
  ServiceStatsBinding binding;
  binding.slab = slab;
  binding.timer = timer;
  binding.submits = registry->RegisterCounter("service.submits");
  binding.frames = registry->RegisterCounter("service.frames");
  binding.device_batches = registry->RegisterCounter("service.device_batches");
  binding.shared_batches = registry->RegisterCounter("service.shared_batches");
  binding.flushes = registry->RegisterCounter("service.flushes");
  binding.wire_batches = registry->RegisterCounter("service.wire_batches");
  binding.queue_depth = registry->RegisterGauge("service.queue_depth");
  return binding;
}

DetectorService::DetectorService(DetectorServiceOptions options, size_t num_shards,
                                 std::vector<common::ThreadPool*> pools,
                                 common::ThreadPool* default_pool)
    : options_(options) {
  common::Check(options_.device_batch >= 1, "device batch must hold a frame");
  common::Check(num_shards >= 1, "detector service needs at least one shard queue");
  if (options_.transport == nullptr) {
    owned_transport_ =
        std::make_unique<LocalTransport>(num_shards, std::move(pools), default_pool);
    options_.transport = owned_transport_.get();
  }
  queues_.resize(num_shards);
  shard_down_.assign(num_shards, false);
  options_.transport->BindLocalResolver(&directory_);
}

DetectorService::PendingRequest* DetectorService::Find(Ticket ticket) const {
  const size_t slot = static_cast<size_t>(ticket & ((Ticket{1} << kSlotBits) - 1));
  if (slot >= requests_.size() || requests_[slot].ticket != ticket) return nullptr;
  return const_cast<PendingRequest*>(&requests_[slot]);
}

void DetectorService::Release(PendingRequest* request) {
  request->ticket = 0;
  request->ready = false;
  free_slots_.push_back(static_cast<uint32_t>(request - requests_.data()));
}

DetectorService::Ticket DetectorService::Submit(const DetectRequest& request) {
  common::Check(!request.frames.empty(), "empty detect request");
  common::Check(request.shards.empty() || request.shards.size() == request.frames.size(),
                "per-frame shard owners must cover the whole request");
  common::Check(request.dispatcher != nullptr || request.detector != nullptr,
                "detect request needs a detector or a dispatcher");

  // First submit of a session: deploy its detector state to the runners
  // before any wire batch can reference it. Two halves — publish the
  // in-process detector pointers in the local directory (what the bound
  // resolver serves local/loopback runners), and ship the session's
  // `RegisterSessionMsg` through the transport's control plane (what a
  // remote runner materializes an equivalent detector from).
  if (registered_sessions_.insert(request.session_id).second) {
    if (request.dispatcher != nullptr) {
      for (uint32_t s = 0; s < request.dispatcher->NumShards(); ++s) {
        detect::ObjectDetector* detector = request.dispatcher->Context(s).detector;
        if (detector != nullptr) directory_.Register(request.session_id, s, detector);
      }
    } else {
      // A dispatcher-less session serves every one of its frames with the
      // one detector, whatever shard owns them — register it under every
      // shard id a wire slot could name.
      for (uint32_t s = 0; s < queues_.size(); ++s) {
        directory_.Register(request.session_id, s, request.detector);
      }
    }
    RegisterSessionMsg reg;
    reg.session_id = request.session_id;
    reg.repo_fingerprint = options_.repo_fingerprint;
    reg.detector_options = request.detector_options;
    const common::Status deployed = options_.transport->RegisterSession(reg);
    if (!deployed.ok() && transport_status_.ok()) {
      // A rejected registration (repository mismatch, unrecoverable control
      // failure) poisons the fleet the same way a failed flush does: sticky,
      // so the driver surfaces it instead of queueing work that can never
      // execute.
      transport_status_ = deployed;
      CancelPending();
    }
  }
  // Nothing can execute on a failed fleet: hand out a ticket no slot holds,
  // which never becomes ready.
  if (!transport_status_.ok()) return next_serial_++ << kSlotBits;

  size_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = requests_.size();
    common::Check(slot < (size_t{1} << kSlotBits), "too many pending detect requests");
    requests_.emplace_back();
  }
  const Ticket ticket = (next_serial_++ << kSlotBits) | slot;
  PendingRequest& pr = requests_[slot];
  pr.ticket = ticket;
  pr.request = request;
  pr.results.clear();  // Sized by the first slice that lands.
  pr.remaining = request.frames.size();
  pr.submit_seconds = NowSeconds();

  for (size_t i = 0; i < request.frames.size(); ++i) {
    const uint32_t shard = request.shards.empty() ? 0 : request.shards[i];
    common::Check(shard < queues_.size(), "frame routed past the shard queues");
    queues_[shard].push_back(QueueEntry{ticket, i});
  }
  pending_frames_ += request.frames.size();
  stats_.requests += 1;
  stats::SlabAdd(stats_binding_.slab, stats_binding_.submits);
  stats::SlabSetGauge(stats_binding_.slab, stats_binding_.queue_depth,
                      static_cast<double>(pending_frames_));
  if (request.session_stats != nullptr) {
    request.session_stats->frames_submitted += request.frames.size();
  }

  // Latency-aware fill trigger: a shard whose queue now holds a full wire
  // batch ships it immediately — the batch cannot get any fuller, so
  // waiting for the round barrier would only add latency. Partial tails
  // keep waiting (for the deadline or the barrier).
  if (options_.flush_policy == FlushPolicy::kLatencyAware) {
    FlushShards(FlushReason::kFill);
  }
  return ticket;
}

void DetectorService::Poll() {
  if (options_.flush_policy != FlushPolicy::kLatencyAware) return;
  if (options_.flush_deadline_seconds <= 0.0 || pending_frames_ == 0) return;
  FlushShards(FlushReason::kDeadline);
}

void DetectorService::Flush() {
  if (pending_frames_ == 0) return;
  stats_.flushes += 1;
  stats::SlabAdd(stats_binding_.slab, stats_binding_.flushes);
  FlushShards(FlushReason::kBarrier);
}

void DetectorService::FlushShards(FlushReason reason) {
  if (!transport_status_.ok()) return;  // Sticky-failed: nothing can execute.

  // Extract the work, shard by shard in shard order: the whole queue, or
  // only whole device-batch slices for the fill trigger. Each frame's
  // request is resolved here, once, on the coordinator.
  const double now = reason == FlushReason::kDeadline ? NowSeconds() : 0.0;
  items_.clear();
  work_.clear();
  for (uint32_t s = 0; s < queues_.size(); ++s) {
    std::vector<QueueEntry>& queue = queues_[s];
    size_t count = queue.size();
    if (count == 0) continue;
    if (reason == FlushReason::kFill) {
      count -= count % options_.device_batch;
    } else if (reason == FlushReason::kDeadline &&
               now - Find(queue.front().ticket)->submit_seconds <
                   options_.flush_deadline_seconds) {
      count = 0;
    }
    if (count == 0) continue;
    work_.push_back(ShardWork{s, items_.size(), items_.size() + count});
    for (size_t i = 0; i < count; ++i) {
      PendingRequest* request = Find(queue[i].ticket);
      common::Check(request != nullptr, "queued frame of an unknown ticket");
      items_.push_back(WorkItem{request, queue[i].frame_index});
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(count));
    pending_frames_ -= count;
  }
  if (work_.empty()) return;
  if (reason == FlushReason::kFill) stats_.fill_flushes += 1;
  if (reason == FlushReason::kDeadline) stats_.deadline_flushes += 1;
  stats::SlabSetGauge(stats_binding_.slab, stats_binding_.queue_depth,
                      static_cast<double>(pending_frames_));

  SendAndCollect();
  if (!transport_status_.ok()) return;  // Everything pending was cancelled.

  // Bookkeeping, on the coordinator after every slice completed. Slice
  // boundaries are a pure function of the extracted queues, so the tallies
  // are deterministic whatever the execution order was.
  for (const ShardWork& work : work_) BookSlices(work);

  // Completion: a request is done when its last frame — on any shard — has
  // been detected; partial flushes leave it pending until then.
  double done_seconds = -1.0;
  for (const WorkItem& item : items_) {
    PendingRequest& pr = *item.request;
    common::Check(pr.remaining > 0, "detect slot completed twice");
    if (--pr.remaining > 0) continue;
    if (done_seconds < 0.0) done_seconds = NowSeconds();
    if (ticket_latencies_.size() >= kTicketLatencyCap) {
      // Keep the most recent window (halving amortizes the shift to O(1)).
      ticket_latencies_.erase(
          ticket_latencies_.begin(),
          ticket_latencies_.begin() + static_cast<ptrdiff_t>(kTicketLatencyCap / 2));
    }
    ticket_latencies_.push_back(done_seconds - pr.submit_seconds);
    stats::TimerRecord(stats_binding_.timer, stats::Stage::kSubmitToGrant,
                       done_seconds - pr.submit_seconds);
    pr.ready = true;
  }
}

void DetectorService::UnregisterSession(uint64_t session_id) {
  if (registered_sessions_.erase(session_id) > 0) {
    directory_.Unregister(session_id);
    options_.transport->UnregisterSession(session_id);
  }
}

void DetectorService::BookSlices(const ShardWork& work) {
  for (size_t begin = work.begin; begin < work.end; begin += options_.device_batch) {
    const size_t end = std::min(begin + options_.device_batch, work.end);
    in_slice_.clear();
    for (size_t i = begin; i < end; ++i) {
      const PendingRequest* pr = items_[i].request;
      if (std::find(in_slice_.begin(), in_slice_.end(), pr) == in_slice_.end()) {
        in_slice_.push_back(pr);
      }
    }
    const bool shared = std::any_of(
        in_slice_.begin(), in_slice_.end(), [this](const PendingRequest* pr) {
          return pr->request.session_id != in_slice_.front()->request.session_id;
        });
    stats_.device_batches += 1;
    stats_.frames += end - begin;
    if (shared) stats_.shared_batches += 1;
    stats::SlabAdd(stats_binding_.slab, stats_binding_.device_batches);
    stats::SlabAdd(stats_binding_.slab, stats_binding_.frames, end - begin);
    if (shared) stats::SlabAdd(stats_binding_.slab, stats_binding_.shared_batches);
    for (const PendingRequest* pr : in_slice_) {
      SessionSchedulerStats* session = pr->request.session_stats;
      if (session == nullptr) continue;
      session->device_batches += 1;
      if (shared) {
        session->batches_shared += 1;
        for (size_t i = begin; i < end; ++i) {
          if (items_[i].request == pr) session->frames_coalesced += 1;
        }
      }
    }
  }
  // Per-session dispatcher stats: book each request's frames on this shard
  // as one service-detected batch. A request's entries are contiguous
  // (queues append per submit).
  size_t i = work.begin;
  while (i < work.end) {
    PendingRequest& pr = *items_[i].request;
    size_t frames_on_shard = 0;
    while (i < work.end && items_[i].request == &pr) {
      ++frames_on_shard;
      ++i;
    }
    if (pr.request.dispatcher != nullptr) {
      pr.request.dispatcher->RecordServiceDetect(work.shard, frames_on_shard);
    }
  }
}

bool DetectorService::RouteShard(uint32_t origin, uint32_t* runner) const {
  if (!shard_down_[origin]) {
    *runner = origin;
    return true;
  }
  for (uint32_t d = 1; d < queues_.size(); ++d) {
    const uint32_t s = (origin + d) % static_cast<uint32_t>(queues_.size());
    if (!shard_down_[s]) {
      *runner = s;
      return true;
    }
  }
  return false;
}

void DetectorService::SendSlice(Slice& slice) {
  msg_.wire_seq = slice.wire_seq;
  msg_.origin_shard = slice.origin_shard;
  msg_.attempt = slice.attempt;
  msg_.repo_fingerprint = options_.repo_fingerprint;
  msg_.slots.clear();
  for (size_t i = slice.begin; i < slice.end; ++i) {
    const PendingRequest& pr = *items_[i].request;
    msg_.slots.push_back(
        WireSlot{pr.request.session_id, pr.request.frames[items_[i].frame_index]});
  }
  if (RoundTripTimer() != nullptr) slice.send_seconds = NowSeconds();
  common::CheckOk(options_.transport->Send(slice.runner, msg_), "wire send failed");
}

void DetectorService::SendAndCollect() {
  ShardTransport* transport = options_.transport;
  slices_.clear();
  for (const ShardWork& work : work_) {
    for (size_t begin = work.begin; begin < work.end; begin += options_.device_batch) {
      slices_.push_back(Slice{work.shard, work.shard, begin,
                              std::min(begin + options_.device_batch, work.end)});
    }
  }

  // Ship every slice first — the runners work concurrently — then collect
  // completions in whatever order they arrive; the wire sequence number
  // matches each response back to its slice, and results land in fixed
  // ticket slots, so arrival order is irrelevant to the trace. A slice is
  // sent once its frames finished decoding, in each request's batch order:
  // later slices keep decoding while the runners detect earlier ones.
  const uint64_t first_seq = next_wire_seq_;
  size_t in_flight = 0;
  bool all_down = false;
  for (Slice& slice : slices_) {
    if (!RouteShard(slice.origin_shard, &slice.runner)) {
      all_down = true;
      break;
    }
    for (size_t i = slice.begin; i < slice.end; ++i) {
      DecodePrefetcher* prefetcher = items_[i].request->request.prefetcher;
      if (prefetcher != nullptr) prefetcher->WaitThrough(items_[i].frame_index);
    }
    slice.wire_seq = next_wire_seq_++;
    SendSlice(slice);
    slice.in_flight = true;
    ++in_flight;
    stats_.wire_batches += 1;
    stats::SlabAdd(stats_binding_.slab, stats_binding_.wire_batches);
    // Proactive reroute off a runner already known to be down: still a
    // first send, counted apart from failure-driven requeue resends.
    if (slice.runner != slice.origin_shard) stats_.wire_reroutes += 1;
  }

  common::Status fatal;  // Non-availability failure: fail fast, by name.
  const auto complete = [&in_flight](Slice& slice) {
    slice.in_flight = false;
    --in_flight;
  };
  while (in_flight > 0) {
    auto received = transport->Receive();
    common::CheckOk(received.status(), "wire receive failed");
    DetectResponseMsg response = std::move(received).value();
    const uint64_t index = response.wire_seq - first_seq;
    common::Check(response.wire_seq >= first_seq && index < slices_.size() &&
                      slices_[index].in_flight,
                  "wire response for an unknown batch");
    Slice& slice = slices_[index];

    if (response.status == WireStatus::kOk) {
      common::Check(response.detections.size() == slice.end - slice.begin,
                    "wire response slot count mismatch");
      // One transport round-trip, (re)send to completed response. Retried
      // batches time from their last send — the round trip the wire actually
      // served, not the cumulative wait.
      if (stats::StageTimer* timer = RoundTripTimer()) {
        timer->Record(stats::Stage::kTransport, NowSeconds() - slice.send_seconds);
      }
      PendingRequest& first = *items_[slice.begin].request;
      if (slice.end - slice.begin == first.remaining &&
          first.remaining == first.request.frames.size() &&
          items_[slice.end - 1].request == &first) {
        // The slice is the whole request in batch order (its queue entries
        // are contiguous): adopt the response's lists as its results.
        first.results = std::move(response.detections);
      } else {
        for (size_t i = slice.begin; i < slice.end; ++i) {
          PendingRequest& pr = *items_[i].request;
          if (pr.results.empty()) pr.results.resize(pr.request.frames.size());
          pr.results[items_[i].frame_index] =
              std::move(response.detections[i - slice.begin]);
        }
      }
      stats_.wire_charged_seconds += response.charged_seconds;
      complete(slice);
      continue;
    }

    // A repository mismatch is a deployment error, not an availability one:
    // every runner of the mis-deployed fleet would reject the same batch, so
    // requeuing it around — marking healthy runners down on the way — would
    // only bury the real diagnosis under "every runner failed". Fail fast,
    // by name.
    if (response.status == WireStatus::kRepoMismatch && fatal.ok()) {
      fatal = common::Status::FailedPrecondition(
          "shard runner rejected the batch: repository fingerprint mismatch "
          "(coordinator and runners serve different repositories)");
    }

    if (all_down || !fatal.ok()) {
      // Draining mode: the flush already failed; just consume what is still
      // in flight so the transport ends empty.
      complete(slice);
      continue;
    }

    // Unavailability (the only failure reaching here): retried in place;
    // exhausted retries mark the runner down and requeue the batch onto a
    // surviving shard's runner. `origin_shard` never changes, so the
    // surviving runner resolves the *same* session/shard detector contexts
    // — detections, and the session's per-shard charged seconds, are
    // identical to the no-failure run.
    if (slice.runner_attempts < options_.max_retries) {
      slice.attempt += 1;
      slice.runner_attempts += 1;
      stats_.wire_retries += 1;
      SendSlice(slice);
      continue;
    }
    if (!shard_down_[slice.runner]) {
      shard_down_[slice.runner] = true;
      stats_.shards_down += 1;
    }
    uint32_t survivor = 0;
    if (!RouteShard(slice.origin_shard, &survivor)) {
      all_down = true;
      complete(slice);
      continue;
    }
    slice.runner = survivor;
    slice.attempt += 1;
    slice.runner_attempts = 0;  // Fresh retry budget on the new runner.
    stats_.wire_requeues += 1;
    SendSlice(slice);
  }

  if (!fatal.ok()) {
    transport_status_ = fatal;
    CancelPending();
  } else if (all_down) {
    transport_status_ = common::Status::Internal(
        "detect transport failed permanently: every shard runner is down");
    CancelPending();
  }
}

void DetectorService::CancelPending() {
  for (PendingRequest& pr : requests_) {
    if (pr.ticket != 0) Release(&pr);
  }
  for (auto& queue : queues_) queue.clear();
  pending_frames_ = 0;
}

bool DetectorService::Ready(Ticket ticket) const {
  const PendingRequest* pr = Find(ticket);
  return pr != nullptr && pr->ready;
}

std::vector<detect::Detections> DetectorService::Take(Ticket ticket) {
  PendingRequest* pr = Find(ticket);
  common::Check(pr != nullptr && pr->ready, "taking a detect result that is not ready");
  std::vector<detect::Detections> results = std::move(pr->results);
  Release(pr);
  return results;
}

double DetectorService::FillRate() const {
  if (stats_.device_batches == 0) return 0.0;
  // The constructor validates device_batch >= 1, but a ratio accessor must
  // not be able to divide by zero whatever state it is called in — guard the
  // denominator rather than trust a distant invariant.
  const double denominator =
      static_cast<double>(stats_.device_batches) *
      static_cast<double>(std::max<size_t>(size_t{1}, options_.device_batch));
  return static_cast<double>(stats_.frames) / denominator;
}

}  // namespace query
}  // namespace exsample
