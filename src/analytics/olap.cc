#include "analytics/olap.h"

#include <algorithm>
#include <memory>

#include "common/query_log.h"
#include "sparql/footprint.h"

namespace rdfa::analytics {

OlapView::OlapView(AnalyticsSession* session,
                   std::vector<Dimension> dimensions, MeasureSpec measure)
    : session_(session), measure_(std::move(measure)) {
  for (Dimension& d : dimensions) {
    DimState s;
    s.dim = std::move(d);
    dims_.push_back(std::move(s));
  }
}

OlapView::DimState* OlapView::FindDim(const std::string& name) {
  for (DimState& d : dims_) {
    if (d.dim.name == name) return &d;
  }
  return nullptr;
}

Status OlapView::RollUp(const std::string& dim) {
  DimState* d = FindDim(dim);
  if (d == nullptr || !d->active) return Status::NotFound("no active dimension " + dim);
  if (d->level + 1 >= d->dim.levels.size()) {
    return Status::InvalidArgument(dim + " is already at its coarsest level");
  }
  ++d->level;
  return Status::OK();
}

Status OlapView::DrillDown(const std::string& dim) {
  DimState* d = FindDim(dim);
  if (d == nullptr || !d->active) return Status::NotFound("no active dimension " + dim);
  if (d->level == 0) {
    return Status::InvalidArgument(dim + " is already at its finest level");
  }
  --d->level;
  return Status::OK();
}

Status OlapView::SetLevel(const std::string& dim, size_t level) {
  DimState* d = FindDim(dim);
  if (d == nullptr) return Status::NotFound("no dimension " + dim);
  if (level >= d->dim.levels.size()) {
    return Status::InvalidArgument("no such level");
  }
  d->level = level;
  d->active = true;
  return Status::OK();
}

Status OlapView::Slice(const std::string& dim, const rdf::Term& value) {
  DimState* d = FindDim(dim);
  if (d == nullptr || !d->active) return Status::NotFound("no active dimension " + dim);
  const DimensionLevel& level = d->dim.levels[d->level];
  if (!level.derived_function.empty()) {
    return Status::Unsupported(
        "slicing on a derived level is not supported; slice on the base "
        "attribute instead");
  }
  std::vector<fs::PropRef> path;
  path.reserve(level.path.size());
  for (const std::string& p : level.path) path.push_back(fs::PropRef{p, false});
  RDFA_RETURN_NOT_OK(session_->fs().ClickValue(path, value));
  d->active = false;
  return Status::OK();
}

Status OlapView::Dice(const std::string& dim, std::optional<double> min,
                      std::optional<double> max) {
  DimState* d = FindDim(dim);
  if (d == nullptr || !d->active) return Status::NotFound("no active dimension " + dim);
  const DimensionLevel& level = d->dim.levels[d->level];
  if (!level.derived_function.empty()) {
    return Status::Unsupported("dicing on a derived level is not supported");
  }
  std::vector<fs::PropRef> path;
  path.reserve(level.path.size());
  for (const std::string& p : level.path) path.push_back(fs::PropRef{p, false});
  return session_->fs().ClickRange(path, min, max);
}

void OlapView::Pivot() {
  if (dims_.size() > 1) {
    std::rotate(dims_.begin(), dims_.end() - 1, dims_.end());
  }
}

void OlapView::set_thread_count(int threads) {
  session_->set_thread_count(threads);
}

void OlapView::set_query_context(QueryContext ctx) {
  session_->set_query_context(std::move(ctx));
}

const sparql::ExecStats& OlapView::last_exec_stats() const {
  return session_->last_exec_stats();
}

int OlapView::LevelOf(const std::string& dim) const {
  for (const DimState& d : dims_) {
    if (d.dim.name == dim) return d.active ? static_cast<int>(d.level) : -1;
  }
  return -1;
}

Result<AnswerFrame> OlapView::Materialize() {
  session_->ClearAnalytics();
  for (const DimState& d : dims_) {
    if (!d.active) continue;
    const DimensionLevel& level = d.dim.levels[d.level];
    GroupingSpec g;
    g.path = level.path;
    g.derived_function = level.derived_function;
    RDFA_RETURN_NOT_OK(session_->ClickGroupBy(std::move(g)));
  }
  RDFA_RETURN_NOT_OK(session_->ClickAggregate(measure_));
  if (cache_ == nullptr) return session_->Execute();
  // Footprint-stamped reuse: the cube is keyed by its normalized SPARQL
  // text and stamped with the sum of per-predicate epochs over the
  // predicates that SPARQL actually touches, so an update to an unrelated
  // predicate leaves materialized cubes valid. Unparsable / unbounded
  // queries degrade to a wildcard footprint, i.e. the classic
  // global-generation stamp.
  RDFA_ASSIGN_OR_RETURN(std::string sparql, session_->BuildSparql());
  const std::string key = NormalizeQueryText(sparql);
  const rdf::Graph* graph = session_->graph();
  const uint64_t generation = graph->Generation();
  std::shared_ptr<const AnswerFrame> hit = cache_->Get(
      key, [graph](const CacheFootprint& fp) {
        return graph->FootprintStamp(fp);
      });
  if (hit != nullptr) {
    session_->InstallAnswer(*hit);
    return *hit;
  }
  CacheFootprint footprint = sparql::FootprintOfQueryText(sparql);
  const uint64_t stamp = graph->FootprintStamp(footprint);
  RDFA_ASSIGN_OR_RETURN(AnswerFrame frame, session_->Execute());
  if (session_->graph()->Generation() == generation) {
    cache_->Put(key, stamp, frame, frame.table().ApproxBytes(),
                std::move(footprint));
  }
  return frame;
}

}  // namespace rdfa::analytics
