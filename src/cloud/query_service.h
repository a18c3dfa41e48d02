#ifndef PPSM_CLOUD_QUERY_SERVICE_H_
#define PPSM_CLOUD_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>

#include "cloud/cloud_server.h"
#include "util/status.h"

namespace ppsm {

/// Counting admission gate with a bounded wait queue. At most `max_inflight`
/// holders at a time; up to `queue_limit` further callers block in Acquire;
/// anyone beyond that is refused immediately with ResourceExhausted, and a
/// caller whose deadline has passed gets DeadlineExceeded — checked on
/// entry, at wait timeout, AND after a nominally successful wait, so an
/// expired query is never admitted and never burns a slot. Split out of
/// QueryService so the admission policy is testable without a hosted graph.
///
/// Fairness: wakeups are not strictly FIFO (condition_variable makes no
/// ordering promise), but the gate is starvation-free — every Release()
/// notifies one waiter, the fast path never barges past a non-empty queue
/// (`waiting_ == 0` guard), and a waiter that declines its wakeup because
/// its deadline expired re-notifies before leaving, so a freed slot's
/// notification is never absorbed and lost. Pinned by the TSan-covered
/// starvation stress in query_service_test.cc.
class AdmissionGate {
 public:
  AdmissionGate(size_t max_inflight, size_t queue_limit);

  /// Blocks until a slot is free (or returns the typed refusal). Every OK
  /// return must be paired with exactly one Release().
  Status Acquire(std::chrono::steady_clock::time_point deadline);
  void Release();

  size_t max_inflight() const { return max_inflight_; }
  size_t queue_limit() const { return queue_limit_; }
  /// Point-in-time occupancy (tests / gauges).
  size_t InFlight() const;
  size_t Queued() const;

 private:
  const size_t max_inflight_;
  const size_t queue_limit_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t inflight_ = 0;
  size_t waiting_ = 0;
};

/// Concurrent front door of one query handler (a CloudCluster, or anything
/// else implementing QueryHandler — the service does not care): admits up to
/// limits().max_inflight simultaneous Serve evaluations, queues up to
/// 2 * max_inflight more, refuses the rest (ResourceExhausted), and charges
/// queue wait against the per-query deadline (limits().query_deadline_ms).
/// Thread-safe: any number of threads may call Execute concurrently — the
/// hosted index is immutable and plan caches carry their own locks. The
/// service borrows the handler, which must outlive it.
class QueryService {
 public:
  /// Fronts any QueryHandler under the given limits.
  QueryService(const QueryHandler* handler, ServiceLimits limits);
  /// Convenience: limits come from the handler itself.
  explicit QueryService(const QueryHandler* handler);

  /// Evaluates one serialized Qo under admission control, with the deadline
  /// clock started now (queue wait counts against it).
  Result<WireAnswer> Execute(std::span<const uint8_t> qo_bytes) const;
  /// Same with an explicit absolute deadline; time_point::max() disables it.
  Result<WireAnswer> Execute(
      std::span<const uint8_t> qo_bytes,
      std::chrono::steady_clock::time_point deadline) const;

  const QueryHandler& handler() const { return *handler_; }
  const ServiceLimits& limits() const { return limits_; }
  const AdmissionGate& gate() const { return *gate_; }

 private:
  const QueryHandler* handler_;
  ServiceLimits limits_;
  // Pointer so the service stays movable (the gate holds a mutex).
  std::unique_ptr<AdmissionGate> gate_;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_QUERY_SERVICE_H_
