#include "cloud/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ppsm {

namespace {
using SteadyClock = std::chrono::steady_clock;

struct ServiceMetrics {
  MetricsRegistry::Counter admitted;
  MetricsRegistry::Counter rejected;
  MetricsRegistry::Histogram queue_wait_ms;
  MetricsRegistry::Gauge inflight;
  MetricsRegistry::Gauge pool_queue_depth;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ServiceMetrics metrics;
      metrics.admitted = r.counter("ppsm_cloud_admitted_total",
                                   "Queries admitted past the gate");
      metrics.rejected =
          r.counter("ppsm_cloud_admission_rejected_total",
                    "Queries refused at the gate (queue full or expired)");
      metrics.queue_wait_ms =
          r.histogram("ppsm_cloud_queue_wait_ms", DefaultLatencyBucketsMs(),
                      "Admission-queue wait per admitted query");
      metrics.inflight = r.gauge("ppsm_cloud_inflight_queries",
                                 "Queries currently executing");
      metrics.pool_queue_depth =
          r.gauge("ppsm_pool_queue_depth",
                  "Shared worker-pool backlog, sampled per admission");
      return metrics;
    }();
    return m;
  }
};
}  // namespace

AdmissionGate::AdmissionGate(size_t max_inflight, size_t queue_limit)
    : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
      queue_limit_(queue_limit) {}

Status AdmissionGate::Acquire(SteadyClock::time_point deadline) {
  const bool has_deadline = deadline != SteadyClock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  // An already-expired budget is refused up front — the fast path below
  // used to admit such queries and burn a slot on work whose answer nobody
  // can use (the handler would only notice the expiry mid-evaluation).
  if (has_deadline && SteadyClock::now() >= deadline) {
    return Status::DeadlineExceeded("query expired in the admission queue");
  }
  if (inflight_ < max_inflight_ && waiting_ == 0) {
    ++inflight_;
    return Status::OK();
  }
  if (waiting_ >= queue_limit_) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(waiting_) + " waiting, " +
        std::to_string(max_inflight_) + " in flight)");
  }
  ++waiting_;
  bool admitted;
  if (has_deadline) {
    admitted = cv_.wait_until(lock, deadline, [this] {
      return inflight_ < max_inflight_;
    });
  } else {
    cv_.wait(lock, [this] { return inflight_ < max_inflight_; });
    admitted = true;
  }
  --waiting_;
  if (admitted && has_deadline && SteadyClock::now() >= deadline) {
    // wait_until() re-evaluates the predicate at timeout, so a slot that
    // frees up exactly as the deadline passes still reports "admitted".
    // Decline it — and pass the baton: this thread may have absorbed the
    // Release() notification for that free slot, so without the re-notify
    // another waiter could sleep forever next to an idle slot.
    admitted = false;
    cv_.notify_one();
  }
  if (!admitted) {
    return Status::DeadlineExceeded("query expired in the admission queue");
  }
  ++inflight_;
  return Status::OK();
}

void AdmissionGate::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

size_t AdmissionGate::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t AdmissionGate::Queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

QueryService::QueryService(const QueryHandler* handler, ServiceLimits limits)
    : handler_(handler),
      limits_(limits),
      gate_(std::make_unique<AdmissionGate>(
          limits.max_inflight,
          /*queue_limit=*/2 * std::max<size_t>(limits.max_inflight, 1))) {}

QueryService::QueryService(const QueryHandler* handler)
    : QueryService(handler, handler->limits()) {}

Result<WireAnswer> QueryService::Execute(
    std::span<const uint8_t> qo_bytes) const {
  const uint64_t budget_ms = limits_.query_deadline_ms;
  const auto deadline =
      budget_ms == 0 ? SteadyClock::time_point::max()
                     : SteadyClock::now() + std::chrono::milliseconds(
                                                budget_ms);
  return Execute(qo_bytes, deadline);
}

Result<WireAnswer> QueryService::Execute(
    std::span<const uint8_t> qo_bytes,
    SteadyClock::time_point deadline) const {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  // The query id is minted at admission — before the gate — so even a
  // refused query has an identity in the flight recorder and span args.
  const uint64_t query_id = FlightRecorder::NextQueryId();
  TraceSpan span(Tracer::Global(), "cloud.query_service.execute", "query");
  span.AddArg("query_id", query_id);
  WallTimer wait_timer;
  const Status admitted = gate_->Acquire(deadline);
  if (!admitted.ok()) {
    metrics.rejected.Increment();
    // Refusals never reach the server, so file their profile here: the
    // queue wait is the whole story of the query.
    CloudQueryStats stats;
    stats.query_id = query_id;
    stats.queue_wait_ms = wait_timer.ElapsedMillis();
    if (admitted.code() == StatusCode::kDeadlineExceeded) {
      stats.timed_out_phase = "queue";
    }
    QueryProfile refusal = ToQueryProfile(stats);
    refusal.status = StatusCodeLabel(admitted.code());
    refusal.total_ms = stats.queue_wait_ms;
    refusal.request_bytes = qo_bytes.size();
    // Even a refusal costs reply bytes on the wire; account the encoded
    // error response instead of reporting 0.
    refusal.response_bytes = EncodedErrorResponseBytes(admitted, stats);
    FlightRecorder::Global().Record(std::move(refusal));
    return admitted;
  }
  const double queue_wait_ms = wait_timer.ElapsedMillis();
  metrics.queue_wait_ms.Observe(queue_wait_ms);
  metrics.admitted.Increment();
  metrics.pool_queue_depth.Set(
      static_cast<double>(ThreadPool::Shared().QueueDepth()));
  QueryContext ctx;
  ctx.query_id = query_id;
  ctx.queue_wait_ms = queue_wait_ms;
  ctx.deadline = deadline;
  CloudQueryStats stats;
  ctx.stats = &stats;
  Result<WireAnswer> answer = [&] {
    ScopedGaugeDelta inflight(metrics.inflight);
    return handler_->Serve(qo_bytes, ctx);
  }();
  gate_->Release();
  QueryProfile profile = ToQueryProfile(stats);
  profile.request_bytes = qo_bytes.size();
  if (answer.ok()) {
    profile.response_bytes = answer->response_payload.size();
  } else {
    profile.status = StatusCodeLabel(answer.status().code());
    // Error replies are not free: report the bytes of the encoded error
    // response the client actually receives (was 0 before, which made
    // failed queries look cheaper than they are in Fig. 22-style sums).
    profile.response_bytes = EncodedErrorResponseBytes(answer.status(), stats);
  }
  FlightRecorder::Global().Record(std::move(profile));
  return answer;
}

}  // namespace ppsm
