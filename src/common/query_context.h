#ifndef RDFA_COMMON_QUERY_CONTEXT_H_
#define RDFA_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/status.h"

namespace rdfa {

class Tracer;

/// Lock-free progress counters one in-flight query publishes for samplers
/// (the live query registry's `ps` view and the per-stage Prometheus
/// gauges). The memory is owned by the registry's fixed slot pool — never
/// freed — so readers may dereference without coordinating with query
/// shutdown. Writers use relaxed stores: progress is monotonic telemetry,
/// not synchronization.
struct QueryProgress {
  /// The stage name of the most recent Check(); a static string literal.
  std::atomic<const char*> stage{nullptr};
  /// Result rows produced so far (updated at join-step granularity).
  std::atomic<uint64_t> rows{0};
};

/// Per-query deadline + cooperative-cancellation handle, threaded through
/// the whole query path (executor, HIFUN evaluator, analytics session,
/// endpoint). Modeled after a serving stack's request context: cheap to
/// copy (copies share one cancellation state), safe to poll from many
/// threads, and checked at natural unit-of-work boundaries (morsels, join
/// stages, group computations) rather than preemptively.
///
/// A default-constructed context is *unlimited*: no deadline, never
/// cancelled, and Check() is a couple of relaxed atomic loads — the
/// no-deadline query path stays byte-identical to a context-free run.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited context (no deadline, not cancelled).
  QueryContext() : state_(std::make_shared<State>()) {}

  /// Context that expires `ms` milliseconds from now. A non-positive budget
  /// yields an already-expired context (the zero-deadline fast-fail path).
  static QueryContext WithDeadlineMs(double ms) {
    QueryContext ctx;
    ctx.deadline_ =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(ms > 0 ? ms : 0));
    ctx.has_deadline_ = true;
    return ctx;
  }

  /// Context expiring at an absolute time point.
  static QueryContext WithDeadline(Clock::time_point deadline) {
    QueryContext ctx;
    ctx.deadline_ = deadline;
    ctx.has_deadline_ = true;
    return ctx;
  }

  /// A child context sharing this context's cancellation state but with a
  /// deadline no later than `ms` from now (the endpoint derives per-query
  /// budgets from the caller's context this way: cancelling the parent
  /// cancels the child, and the tighter of the two deadlines wins).
  QueryContext ChildWithDeadlineMs(double ms) const {
    QueryContext child = *this;  // shares state_
    QueryContext tighter = WithDeadlineMs(ms);
    if (!has_deadline_ || tighter.deadline_ < deadline_) {
      child.deadline_ = tighter.deadline_;
      child.has_deadline_ = true;
    }
    return child;
  }

  /// Requests cancellation. Thread-safe; visible to every copy of this
  /// context. In-flight work unwinds at its next Check().
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds until the deadline (negative once expired); +infinity
  /// when no deadline is set.
  double remaining_ms() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(deadline_ - Clock::now())
        .count();
  }

  Clock::time_point deadline() const { return deadline_; }

  bool expired() const { return has_deadline_ && Clock::now() >= deadline_; }

  /// Arms deterministic fault injection: the `n`-th subsequent Check() call
  /// (counted across all threads) flips the context to cancelled. Check
  /// sequences are deterministic for a given query and dataset (morsel
  /// structure is deterministic), so tests can trip cancellation at an
  /// exact point mid-pipeline without timing races.
  void CancelAfterChecks(int64_t n) {
    state_->cancel_countdown.store(n, std::memory_order_release);
  }

  /// Total Check() calls made through this context (all copies, all
  /// threads). Used with CancelAfterChecks for deterministic tests.
  int64_t checks_performed() const {
    return state_->checks.load(std::memory_order_acquire);
  }

  /// The cooperative checkpoint. Returns OK, or Cancelled/DeadlineExceeded
  /// naming `stage` (e.g. "bgp-join", "group-aggregate") so the caller can
  /// see *where* the budget ran out. Call at unit-of-work boundaries; cost
  /// is two relaxed atomics plus, when a deadline is set, one clock read.
  Status Check(const char* stage) const {
    state_->checks.fetch_add(1, std::memory_order_relaxed);
    if (progress_ != nullptr) {
      progress_->stage.store(stage, std::memory_order_relaxed);
    }
    int64_t countdown =
        state_->cancel_countdown.load(std::memory_order_acquire);
    if (countdown > 0 &&
        state_->cancel_countdown.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
      state_->cancelled.store(true, std::memory_order_release);
    }
    if (cancelled()) {
      RecordTrip(stage);
      return Status::Cancelled(std::string("query cancelled during ") +
                               stage);
    }
    if (expired()) {
      RecordTrip(stage);
      return Status::DeadlineExceeded(
          std::string("query deadline exceeded during ") + stage);
    }
    return Status::OK();
  }

  /// The stage name of the first Check() that tripped (null if none did).
  /// Copied into ExecStats::abort_stage so partial stats say where the
  /// budget ran out.
  const char* trip_stage() const {
    return state_->trip_stage.load(std::memory_order_acquire);
  }

  /// Cheap boolean form for hot loops that only need to know whether to
  /// keep going (the full typed Status is produced once, at the stage
  /// boundary).
  bool ShouldStop() const { return cancelled() || expired(); }

  /// Attaches a span tracer (common/trace.h) for the query this context
  /// governs. Copies of the context share the tracer the same way they
  /// share cancellation state, so every layer the context already reaches
  /// — executor, BGP join, HIFUN evaluator, endpoint — can record spans
  /// without new plumbing. Null (the default) disables tracing; span sites
  /// then cost one pointer compare.
  void set_tracer(std::shared_ptr<Tracer> tracer) {
    tracer_ = std::move(tracer);
  }
  Tracer* tracer() const { return tracer_.get(); }
  const std::shared_ptr<Tracer>& shared_tracer() const { return tracer_; }

  /// Attaches live-progress counters (owned by the query registry's
  /// never-freed slot pool, so the raw pointer outlives every sampler).
  /// Copies of the context share the pointer; Check() then publishes its
  /// stage, and join loops call AddProgressRows(). Null (the default) makes
  /// both a single pointer compare.
  void set_progress(QueryProgress* progress) { progress_ = progress; }
  QueryProgress* progress() const { return progress_; }

  /// Publishes `n` more produced rows for `ps`-style sampling. Relaxed:
  /// telemetry only, never synchronization.
  void AddProgressRows(uint64_t n) const {
    if (progress_ != nullptr) {
      progress_->rows.fetch_add(n, std::memory_order_relaxed);
    }
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<int64_t> cancel_countdown{0};
    std::atomic<int64_t> checks{0};
    std::atomic<const char*> trip_stage{nullptr};
  };

  void RecordTrip(const char* stage) const {
    const char* expected = nullptr;  // keep the first trip's stage
    state_->trip_stage.compare_exchange_strong(expected, stage,
                                               std::memory_order_acq_rel);
  }

  std::shared_ptr<State> state_;
  std::shared_ptr<Tracer> tracer_;
  QueryProgress* progress_ = nullptr;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace rdfa

#endif  // RDFA_COMMON_QUERY_CONTEXT_H_
