#ifndef RDFA_COMMON_LRU_CACHE_H_
#define RDFA_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/footprint.h"
#include "common/metrics.h"

namespace rdfa {

/// Capacity and enablement knobs shared by every cache in the engine (the
/// endpoint answer cache, the OLAP cube cache).
/// Either capacity at 0 — or `enabled` false — turns the cache into a
/// store-nothing pass-through: every Get is a miss, every Put a no-op.
struct CacheOptions {
  size_t max_bytes = 64ull << 20;  ///< total payload budget across shards
  size_t max_entries = 4096;       ///< total entry budget across shards
  bool enabled = true;
  /// Lock shards. Keys hash to one shard; capacities divide evenly across
  /// them, so per-shard eviction keeps the totals bounded. Tests that
  /// assert exact global eviction order use shards = 1.
  size_t shards = 8;
};

/// Point-in-time counters of one cache. Hits/misses/evictions/invalidations
/// are cumulative since construction or the last Clear(); entries/bytes are
/// the current residency.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< capacity-driven removals (LRU tail)
  uint64_t invalidations = 0;  ///< generation-mismatch lazy removals
  /// Pre-existing entries displaced by a Put under their key — overwritten
  /// by the fresh value, or dropped when an oversized value was rejected.
  /// Every removed entry ticks exactly one of evictions / invalidations /
  /// replacements (or entries dropped by Clear()), so residency deltas are
  /// always accounted for.
  uint64_t replacements = 0;
  size_t entries = 0;
  size_t bytes = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Thread-safe, byte-accounted LRU cache keyed by string.
///
/// Every entry carries the graph *generation* it was computed at. Get()
/// takes the caller's current generation and treats any entry stamped with
/// a different one as a miss, erasing it on the spot (lazy invalidation) —
/// so a mutation between fill and lookup can never surface a stale value.
/// Values are held behind shared_ptr<const V>: a hit hands out a reference
/// without copying under the lock, and an entry evicted while a reader
/// still holds the pointer stays alive for that reader.
///
/// Entries may carry a predicate *footprint* (common/footprint.h): the
/// stamp is then not the global generation but a footprint-specific value
/// (rdf::Graph::FootprintStamp), and the footprint-taking Get overload
/// recomputes the expected stamp from the *entry's own* footprint via a
/// caller-supplied function — so an entry survives mutations that touch
/// only predicates outside its footprint. Wildcard-footprint entries (the
/// default) behave exactly like the original global-generation protocol.
///
/// When `metric_prefix` is non-empty, the event counters also tick
/// `<prefix>_{hits,misses,evictions,invalidations,replacements}_total` in
/// the global MetricsRegistry (registered once, at construction). Those
/// registry counters are cumulative for the process — Clear() resets only
/// the cache-local stats, never the monotonic exported series.
template <typename V>
class LruCache {
 public:
  explicit LruCache(CacheOptions opts, const std::string& metric_prefix = "")
      : opts_(opts) {
    if (opts_.shards == 0) opts_.shards = 1;
    shards_ = std::vector<Shard>(opts_.shards);
    shard_bytes_ = opts_.max_bytes / opts_.shards;
    shard_entries_ = opts_.max_entries / opts_.shards;
    // Small totals must not round down to zero-capacity shards.
    if (opts_.max_bytes > 0 && shard_bytes_ == 0) shard_bytes_ = 1;
    if (opts_.max_entries > 0 && shard_entries_ == 0) shard_entries_ = 1;
    if (!metric_prefix.empty()) {
      metric_prefix_ = metric_prefix;
      MetricsRegistry& reg = MetricsRegistry::Global();
      m_hits_ = &reg.GetCounter(metric_prefix + "_hits_total",
                                "Cache hits (" + metric_prefix + ")");
      m_misses_ = &reg.GetCounter(metric_prefix + "_misses_total",
                                  "Cache misses (" + metric_prefix + ")");
      m_evictions_ =
          &reg.GetCounter(metric_prefix + "_evictions_total",
                          "Capacity evictions (" + metric_prefix + ")");
      m_invalidations_ = &reg.GetCounter(
          metric_prefix + "_invalidations_total",
          "Generation invalidations (" + metric_prefix + ")");
      m_replacements_ = &reg.GetCounter(
          metric_prefix + "_replacements_total",
          "Entries displaced by a Put under their key (" + metric_prefix +
              ")");
    }
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  bool enabled() const {
    return opts_.enabled && opts_.max_bytes > 0 && opts_.max_entries > 0;
  }
  const CacheOptions& options() const { return opts_; }

  /// Looks `key` up against the caller's current `generation`. Returns the
  /// cached value (refreshing its LRU position) only when the entry's
  /// stamped generation matches; a mismatched entry is erased and counted
  /// as an invalidation + miss.
  std::shared_ptr<const V> Get(const std::string& key, uint64_t generation) {
    return Get(key, [generation](const CacheFootprint&) { return generation; });
  }

  /// Footprint-validated lookup: `stamp_fn(entry.footprint)` recomputes the
  /// stamp the entry *would* get if stored now (typically
  /// graph->FootprintStamp(fp)); the entry is served only when it matches
  /// the stored one. The footprint lives in the entry because the caller
  /// cannot know a query's footprint before planning it — on a hit, the
  /// recorded footprint from fill time is exactly what must be validated.
  /// `stamp_fn` runs under the shard lock: it must be cheap and must not
  /// reenter the cache.
  template <typename StampFn,
            typename = std::enable_if_t<std::is_invocable_r_v<
                uint64_t, StampFn, const CacheFootprint&>>>
  std::shared_ptr<const V> Get(const std::string& key, StampFn&& stamp_fn) {
    if (!enabled()) return nullptr;
    Shard& shard = ShardFor(key);
    std::shared_ptr<const V> value;
    bool invalidated = false;
    CacheFootprint stale_fp;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it == shard.index.end()) {
        ++shard.misses;
      } else if (it->second->generation != stamp_fn(it->second->footprint)) {
        shard.bytes -= it->second->bytes;
        stale_fp = std::move(it->second->footprint);
        shard.lru.erase(it->second);
        shard.index.erase(it);
        ++shard.invalidations;
        ++shard.misses;
        invalidated = true;
      } else {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        value = it->second->value;
      }
    }
    if (value != nullptr) {
      if (m_hits_ != nullptr) m_hits_->Increment();
    } else {
      if (m_misses_ != nullptr) m_misses_->Increment();
      if (invalidated && m_invalidations_ != nullptr) {
        m_invalidations_->Increment();
        // Predicate-granular attribution: which dependency went stale. A
        // wildcard footprint (global-generation entries) lands on "*".
        // Registry-map path, but invalidations are rare by construction.
        MetricsRegistry& reg = MetricsRegistry::Global();
        const std::string family =
            metric_prefix_ + "_invalidations_by_predicate_total";
        static const char* const kHelp =
            "Cache invalidations attributed to a stale footprint predicate";
        if (stale_fp.wildcard) {
          reg.GetCounterLabeled(family, "predicate", "*", kHelp).Increment();
        } else {
          for (const std::string& pred : stale_fp.predicates) {
            reg.GetCounterLabeled(family, "predicate", pred, kHelp)
                .Increment();
          }
        }
      }
    }
    return value;
  }

  /// Inserts (or replaces) `key` with a value stamped `generation` (a
  /// global generation, or a FootprintStamp when `footprint` is precise),
  /// accounted as `bytes`, evicting least-recently-used entries until the
  /// shard is back under both budgets. A value larger than a whole shard's
  /// byte budget is not stored (evicting everything still could not fit
  /// it); a pre-existing entry under the key is dropped either way, and
  /// counted as a *replacement* — so entries never vanish without ticking
  /// exactly one of evictions / invalidations / replacements.
  void Put(const std::string& key, uint64_t generation,
           std::shared_ptr<const V> value, size_t bytes,
           CacheFootprint footprint = CacheFootprint::Wildcard()) {
    if (!enabled() || value == nullptr) return;
    Shard& shard = ShardFor(key);
    uint64_t evicted = 0;
    bool replaced = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->bytes;
        shard.lru.erase(it->second);
        shard.index.erase(it);
        ++shard.replacements;
        replaced = true;
      }
      if (bytes <= shard_bytes_) {
        shard.lru.push_front(Entry{key, generation, std::move(value), bytes,
                                   std::move(footprint)});
        shard.index[key] = shard.lru.begin();
        shard.bytes += bytes;
        while (shard.bytes > shard_bytes_ ||
               shard.lru.size() > shard_entries_) {
          const Entry& tail = shard.lru.back();
          shard.bytes -= tail.bytes;
          shard.index.erase(tail.key);
          shard.lru.pop_back();
          ++evicted;
        }
        shard.evictions += evicted;
      }
    }
    if (evicted > 0 && m_evictions_ != nullptr) {
      m_evictions_->Increment(evicted);
    }
    if (replaced && m_replacements_ != nullptr) m_replacements_->Increment();
  }

  /// Convenience overload that takes ownership of a plain value.
  void Put(const std::string& key, uint64_t generation, V value, size_t bytes,
           CacheFootprint footprint = CacheFootprint::Wildcard()) {
    Put(key, generation, std::make_shared<const V>(std::move(value)), bytes,
        std::move(footprint));
  }

  /// Drops every entry and zeroes the cache-local stats, so hit-rate math
  /// restarts from a clean slate (exported registry counters, being
  /// monotonic, are left alone).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
      shard.hits = shard.misses = 0;
      shard.evictions = shard.invalidations = 0;
      shard.replacements = 0;
    }
  }

  CacheStats Stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.evictions += shard.evictions;
      total.invalidations += shard.invalidations;
      total.replacements += shard.replacements;
      total.entries += shard.lru.size();
      total.bytes += shard.bytes;
    }
    return total;
  }

 private:
  struct Entry {
    std::string key;
    uint64_t generation = 0;
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    CacheFootprint footprint;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    uint64_t replacements = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>()(key) % shards_.size()];
  }

  CacheOptions opts_;
  std::string metric_prefix_;
  size_t shard_bytes_ = 0;
  size_t shard_entries_ = 0;
  std::vector<Shard> shards_;
  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_evictions_ = nullptr;
  Counter* m_invalidations_ = nullptr;
  Counter* m_replacements_ = nullptr;
};

}  // namespace rdfa

#endif  // RDFA_COMMON_LRU_CACHE_H_
