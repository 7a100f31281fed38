#ifndef RDFA_ANALYTICS_OLAP_H_
#define RDFA_ANALYTICS_OLAP_H_

#include <string>
#include <vector>

#include "analytics/session.h"
#include "common/lru_cache.h"

namespace rdfa::analytics {

/// One granularity level of a dimension: an attribute path from the focus,
/// optionally a derived function (e.g. day -> MONTH(date) -> YEAR(date), or
/// branch -> city -> country by extending the property path).
struct DimensionLevel {
  std::string name;               ///< display name, e.g. "month"
  std::vector<std::string> path;  ///< property IRIs
  std::string derived_function;   ///< "" or YEAR/MONTH/...
};

/// A cube dimension with its level hierarchy, finest level first.
struct Dimension {
  std::string name;
  std::vector<DimensionLevel> levels;
};

/// The OLAP face of the interaction model (dissertation §7.2, Figs
/// 7.1/7.2): roll-up, drill-down, slice, dice and pivot expressed through
/// the same G/Σ/filter actions the GUI offers. The view owns which
/// dimensions are active and at which level; Materialize() programs the
/// underlying AnalyticsSession and executes.
class OlapView {
 public:
  /// `session` must outlive the view.
  OlapView(AnalyticsSession* session, std::vector<Dimension> dimensions,
           MeasureSpec measure);

  /// Moves `dim` one level coarser (roll-up) / finer (drill-down).
  Status RollUp(const std::string& dim);
  Status DrillDown(const std::string& dim);
  /// Sets `dim` to an explicit level index.
  Status SetLevel(const std::string& dim, size_t level);

  /// Slice: fixes `dim` (at its current level path) to `value` — the cell
  /// filter enters the FS state — and removes the dimension from the
  /// grouping.
  Status Slice(const std::string& dim, const rdf::Term& value);

  /// Dice: keeps `dim` grouped but restricts its numeric values to
  /// [min, max].
  Status Dice(const std::string& dim, std::optional<double> min,
              std::optional<double> max);

  /// Pivot: rotates the dimension order (last becomes first).
  void Pivot();

  /// Current level index of `dim`; -1 if sliced away or unknown.
  int LevelOf(const std::string& dim) const;

  /// Morsel-parallelism budget for Materialize (forwarded to the session's
  /// executor; parallel cubes are byte-identical to serial ones).
  void set_thread_count(int threads);

  /// Deadline/cancellation context for Materialize (forwarded to the
  /// session; a trip unwinds to DeadlineExceeded/Cancelled).
  void set_query_context(QueryContext ctx);

  /// Execution statistics of the most recent Materialize().
  const sparql::ExecStats& last_exec_stats() const;

  /// Cube reuse: with a cache installed, Materialize() keys the cube by its
  /// normalized SPARQL and stamps it with the footprint of the predicates
  /// that SPARQL reads, so revisiting a level (roll-up then drill-down
  /// back, repeated slices) returns the memoized frame, and a mutation of
  /// one of those predicates invalidates it lazily, never serving a stale
  /// cube. Null (the default) disables reuse. `cache` must outlive the
  /// view.
  void set_cache(LruCache<AnswerFrame>* cache) { cache_ = cache; }

  /// Programs the session (groupings per active dimension at its current
  /// level, plus the measure) and executes the analytic query.
  Result<AnswerFrame> Materialize();

 private:
  struct DimState {
    Dimension dim;
    size_t level = 0;
    bool active = true;
  };
  DimState* FindDim(const std::string& name);

  AnalyticsSession* session_;
  std::vector<DimState> dims_;
  MeasureSpec measure_;
  LruCache<AnswerFrame>* cache_ = nullptr;
};

}  // namespace rdfa::analytics

#endif  // RDFA_ANALYTICS_OLAP_H_
