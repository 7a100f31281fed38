#include "common/query_registry.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/metrics.h"

namespace rdfa {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

int64_t Ticks(QueryContext::Clock::time_point t) {
  return t.time_since_epoch().count();
}

QueryContext::Clock::time_point FromTicks(int64_t ticks) {
  return QueryContext::Clock::time_point(QueryContext::Clock::duration(ticks));
}

}  // namespace

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

QueryRegistry::Handle QueryRegistry::Register(QueryContext* ctx,
                                              const std::string& query_text,
                                              uint64_t query_hash,
                                              uint64_t snapshot_epoch) {
  Handle handle;
  std::lock_guard<std::mutex> lock(mu_);
  size_t index = kSlots;
  for (size_t i = 0; i < kSlots; ++i) {
    if (!slots_[i].occupied.load(std::memory_order_relaxed)) {
      index = i;
      break;
    }
  }
  if (index == kSlots) return handle;  // pool full: run unregistered

  Slot& slot = slots_[index];
  const int64_t id = next_id_.fetch_add(1, kRelaxed);
  char head[kHeadWords * sizeof(uint64_t)] = {};
  std::memcpy(head, query_text.data(),
              std::min(query_text.size(), sizeof(head) - 1));
  // Seqlock write (writers serialize on mu_): odd while the metadata is
  // inconsistent; the release fence keeps the field stores after it.
  const uint64_t seq = slot.seq.load(kRelaxed);
  slot.seq.store(seq + 1, kRelaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.id.store(id, kRelaxed);
  slot.query_hash.store(query_hash, kRelaxed);
  slot.snapshot_epoch.store(snapshot_epoch, kRelaxed);
  slot.start.store(Ticks(QueryContext::Clock::now()), kRelaxed);
  slot.has_deadline.store(ctx->has_deadline(), kRelaxed);
  slot.deadline.store(Ticks(ctx->deadline()), kRelaxed);
  for (size_t w = 0; w < kHeadWords; ++w) {
    uint64_t word;
    std::memcpy(&word, head + w * sizeof(word), sizeof(word));
    slot.head[w].store(word, kRelaxed);
  }
  slot.progress.stage.store(nullptr, kRelaxed);
  slot.progress.rows.store(0, kRelaxed);
  slot.cancel_ctx = *ctx;  // shares cancellation state: Kill() cancels it
  slot.occupied.store(true, kRelaxed);
  slot.seq.store(seq + 2, std::memory_order_release);

  ctx->set_progress(&slot.progress);

  MetricsRegistry::Global()
      .GetGauge("rdfa_inflight_queries",
                "Queries currently executing (registered in the live query "
                "registry)")
      .Set(static_cast<double>(CountOccupiedLocked()));

  handle.registry_ = this;
  handle.slot_ = index;
  handle.id_ = id;
  return handle;
}

void QueryRegistry::Unregister(size_t slot_index, int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[slot_index];
  if (slot.id.load(kRelaxed) != id || !slot.occupied.load(kRelaxed)) return;
  const uint64_t seq = slot.seq.load(kRelaxed);
  slot.seq.store(seq + 1, kRelaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.occupied.store(false, kRelaxed);
  slot.cancel_ctx = QueryContext();  // drop the shared cancellation state
  slot.seq.store(seq + 2, std::memory_order_release);
  MetricsRegistry::Global()
      .GetGauge("rdfa_inflight_queries")
      .Set(static_cast<double>(CountOccupiedLocked()));
}

size_t QueryRegistry::CountOccupiedLocked() const {
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.occupied.load(kRelaxed)) ++n;
  }
  return n;
}

void QueryRegistry::Handle::Release() {
  if (registry_ != nullptr) {
    registry_->Unregister(slot_, id_);
    registry_ = nullptr;
  }
}

std::vector<InflightQuery> QueryRegistry::Snapshot() const {
  std::vector<InflightQuery> out;
  const auto now = QueryContext::Clock::now();
  for (const Slot& slot : slots_) {
    InflightQuery q;
    bool ok = false;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const uint64_t s0 = slot.seq.load(std::memory_order_acquire);
      if (s0 & 1) continue;  // mid-write; retry
      if (!slot.occupied.load(kRelaxed)) break;
      q.id = slot.id.load(kRelaxed);
      q.query_hash = slot.query_hash.load(kRelaxed);
      q.snapshot_epoch = slot.snapshot_epoch.load(kRelaxed);
      char head[kHeadWords * sizeof(uint64_t)];
      for (size_t w = 0; w < kHeadWords; ++w) {
        const uint64_t word = slot.head[w].load(kRelaxed);
        std::memcpy(head + w * sizeof(word), &word, sizeof(word));
      }
      const auto start = FromTicks(slot.start.load(kRelaxed));
      const bool has_deadline = slot.has_deadline.load(kRelaxed);
      const auto deadline = FromTicks(slot.deadline.load(kRelaxed));
      // The loads above are ordered before the re-check of the sequence.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(kRelaxed) != s0) continue;
      q.head.assign(head, strnlen(head, sizeof(head)));
      q.elapsed_ms =
          std::chrono::duration<double, std::milli>(now - start).count();
      q.deadline_remaining_ms =
          has_deadline
              ? std::chrono::duration<double, std::milli>(deadline - now)
                    .count()
              : std::numeric_limits<double>::infinity();
      ok = true;
      break;
    }
    if (!ok) continue;
    // Relaxed telemetry — read outside the seqlock on purpose.
    q.stage = slot.progress.stage.load(kRelaxed);
    q.rows = slot.progress.rows.load(kRelaxed);
    out.push_back(std::move(q));
  }
  std::sort(out.begin(), out.end(),
            [](const InflightQuery& a, const InflightQuery& b) {
              return a.id < b.id;
            });
  return out;
}

bool QueryRegistry::Kill(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.occupied.load(kRelaxed) && slot.id.load(kRelaxed) == id) {
      slot.cancel_ctx.Cancel();
      MetricsRegistry::Global()
          .GetCounter("rdfa_queries_killed_total",
                      "Queries cancelled via the registry kill command")
          .Increment();
      return true;
    }
  }
  return false;
}

void QueryRegistry::UpdateStageGauges() {
  std::vector<InflightQuery> inflight = Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const char* const kStageHelp =
      "In-flight queries currently in this execution stage";
  for (const InflightQuery& q : inflight) {
    if (q.stage != nullptr &&
        std::find(known_stages_.begin(), known_stages_.end(), q.stage) ==
            known_stages_.end()) {
      known_stages_.push_back(q.stage);
    }
  }
  for (const char* stage : known_stages_) {
    size_t n = 0;
    for (const InflightQuery& q : inflight) {
      if (q.stage == stage) ++n;
    }
    metrics
        .GetGaugeLabeled("rdfa_inflight_queries_by_stage", "stage", stage,
                         kStageHelp)
        .Set(static_cast<double>(n));
  }
}

}  // namespace rdfa
