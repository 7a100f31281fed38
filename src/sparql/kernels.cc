#include "sparql/kernels.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>

#include "common/thread_pool.h"

namespace rdfa::sparql {

using rdf::kNoTermId;
using rdf::TermId;

namespace {

// Rows between two polls of the query context inside a row loop.
constexpr size_t kPollRows = 128;
// first_row of the empty-input group, which has no rows.
constexpr uint32_t kNoRow = UINT32_MAX;
// Key string of an unbound group key. No N-Triples term starts with \x01,
// so it sorts before every bound key.
const char kUnboundKey[] = "\x01unbound";

TermId TermAt(const Binding& row, int slot) {
  return slot >= 0 && static_cast<size_t>(slot) < row.size() ? row[slot]
                                                             : kNoTermId;
}

/// Computes one aggregate over the rows `members` of `rows`, in order —
/// the generic path, for what the streaming accumulators do not cover.
Value ComputeAggregate(const Expr& agg, const std::vector<Binding>& rows,
                       std::span<const uint32_t> members,
                       const EvalContext& ctx) {
  if (agg.agg_star) {
    // COUNT(*), possibly DISTINCT (over whole rows; DISTINCT * is rare).
    return Value::Int(static_cast<int64_t>(members.size()));
  }
  const Expr& arg = *agg.args[0];
  std::vector<Value> values;
  values.reserve(members.size());
  std::set<std::string> seen;
  for (uint32_t r : members) {
    Value v = EvalExpr(arg, rows[r], ctx);
    if (v.is_unbound()) continue;
    if (agg.agg_distinct) {
      std::string key = v.ToTerm().ToNTriples();
      if (!seen.insert(key).second) continue;
    }
    values.push_back(std::move(v));
  }
  switch (agg.agg) {
    case AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(values.size()));
    case AggFunc::kSum: {
      bool all_int = true;
      double sum = 0;
      int64_t isum = 0;
      for (const Value& v : values) {
        auto n = v.AsNumeric();
        if (!n.has_value()) return Value::Unbound();
        sum += *n;
        if (v.kind() == Value::Kind::kInt) {
          isum += v.int_value();
        } else {
          all_int = false;
        }
      }
      return all_int ? Value::Int(isum) : Value::Double(sum);
    }
    case AggFunc::kAvg: {
      if (values.empty()) return Value::Unbound();
      double sum = 0;
      for (const Value& v : values) {
        auto n = v.AsNumeric();
        if (!n.has_value()) return Value::Unbound();
        sum += *n;
      }
      return Value::Double(sum / static_cast<double>(values.size()));
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (values.empty()) return Value::Unbound();
      const Value* best = &values[0];
      for (size_t i = 1; i < values.size(); ++i) {
        auto c = Value::Compare(values[i], *best);
        if (!c.has_value()) continue;
        if ((agg.agg == AggFunc::kMin && *c < 0) ||
            (agg.agg == AggFunc::kMax && *c > 0)) {
          best = &values[i];
        }
      }
      return *best;
    }
    case AggFunc::kGroupConcat: {
      std::string out;
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += agg.agg_separator;
        out += values[i].AsString();
      }
      return Value::String(std::move(out));
    }
    case AggFunc::kSample:
      return values.empty() ? Value::Unbound() : values[0];
  }
  return Value::Unbound();
}

}  // namespace

const TermDecodeCache::Numeric& TermDecodeCache::Get(TermId id) {
  auto [it, fresh] = entries_.try_emplace(id);
  if (fresh) {
    const Value v = Value::FromTerm(terms_->Get(id));
    it->second.value = v.AsNumeric();
    it->second.is_int = v.kind() == Value::Kind::kInt;
    it->second.int_value = v.int_value();
  }
  return it->second;
}

std::optional<NumericComparison> NumericComparison::Compile(
    const Expr& filter, const VarTable& vars) {
  if (filter.kind != Expr::Kind::kBinary || filter.args.size() != 2 ||
      filter.args[0] == nullptr || filter.args[1] == nullptr ||
      filter.args[0]->kind != Expr::Kind::kVar ||
      filter.args[1]->kind != Expr::Kind::kTerm) {
    return std::nullopt;
  }
  static const std::pair<const char*, Op> kOps[] = {
      {"<", Op::kLt},  {"<=", Op::kLe}, {">", Op::kGt},
      {">=", Op::kGe}, {"=", Op::kEq},  {"!=", Op::kNe}};
  const auto* op =
      std::find_if(std::begin(kOps), std::end(kOps),
                   [&](const auto& o) { return filter.op == o.first; });
  if (op == std::end(kOps)) return std::nullopt;
  const int slot = vars.Find(filter.args[0]->var);
  if (slot < 0) return std::nullopt;
  const std::optional<double> constant =
      Value::FromTerm(filter.args[1]->term).AsNumeric();
  if (!constant.has_value()) return std::nullopt;
  NumericComparison out;
  out.slot_ = static_cast<size_t>(slot);
  out.op_ = op->second;
  out.constant_ = *constant;
  return out;
}

std::optional<bool> NumericComparison::Test(const Binding& row,
                                            TermDecodeCache* cache) const {
  if (slot_ >= row.size() || row[slot_] == kNoTermId) return std::nullopt;
  const std::optional<double>& value = cache->Get(row[slot_]).value;
  if (!value.has_value()) return std::nullopt;
  const double v = *value;
  // Value::Compare orders by `<` then `>` and calls everything else equal
  // (NaN included); Value::Equals compares numerics with `==`.
  switch (op_) {
    case Op::kLt:
      return v < constant_;
    case Op::kLe:
      return !(v > constant_);
    case Op::kGt:
      return v > constant_;
    case Op::kGe:
      return !(v < constant_);
    case Op::kEq:
      return v == constant_;
    case Op::kNe:
      return !(v == constant_);
  }
  return std::nullopt;
}

size_t GroupAggregator::TupleHash::operator()(
    const std::vector<uint32_t>& t) const {
  size_t h = t.size();
  for (uint32_t v : t) h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint32_t GroupAggregator::Groups::InternKey(std::string key) {
  auto [it, fresh] = key_ids.try_emplace(
      std::move(key), static_cast<uint32_t>(key_strings.size()));
  if (fresh) key_strings.push_back(&it->first);
  return it->second;
}

uint32_t GroupAggregator::Groups::GroupOf(const std::vector<uint32_t>& key,
                                          uint32_t row) {
  auto [it, fresh] = ids.try_emplace(key, static_cast<uint32_t>(keys.size()));
  if (fresh) {
    keys.push_back(key);
    first_row.push_back(row);
  }
  return it->second;
}

GroupAggregator::GroupAggregator(const std::vector<ExprPtr>& group_by,
                                 std::vector<const Expr*> agg_nodes,
                                 const EvalContext& ctx,
                                 TermDecodeCache* cache)
    : agg_nodes_(std::move(agg_nodes)), ctx_(ctx), cache_(cache) {
  for (const ExprPtr& g : group_by) {
    group_by_.push_back(g.get());
    key_slots_.push_back(g->kind == Expr::Kind::kVar ? ctx_.vars->Find(g->var)
                                                     : -1);
  }
  for (const Expr* node : agg_nodes_) {
    int slot = -1;
    bool streams = node->agg_star;
    if (!node->agg_star && !node->agg_distinct &&
        node->agg != AggFunc::kGroupConcat && node->agg != AggFunc::kSample &&
        node->args[0]->kind == Expr::Kind::kVar) {
      // A variable without a slot is never bound: it streams no values.
      slot = ctx_.vars->Find(node->args[0]->var);
      streams = true;
    }
    agg_slots_.push_back(slot);
    streams_.push_back(streams);
  }
}

void GroupAggregator::GroupRows(size_t lo, size_t hi, const QueryContext& qctx,
                                Groups* out) const {
  const std::vector<Binding>& rows = *rows_;
  // Canonical key id per distinct TermId of a plain-variable key.
  std::unordered_map<TermId, uint32_t> term_keys;
  std::optional<uint32_t> unbound;
  auto unbound_key = [&] {
    if (!unbound.has_value()) unbound = out->InternKey(kUnboundKey);
    return *unbound;
  };
  std::vector<uint32_t> key(group_by_.size());
  out->row_group.reserve(hi - lo);
  for (size_t r = lo; r < hi; ++r) {
    if ((r - lo + 1) % kPollRows == 0 && qctx.ShouldStop()) return;
    const Binding& row = rows[r];
    for (size_t k = 0; k < key.size(); ++k) {
      if (key_slots_[k] < 0) {
        const Value v = EvalExpr(*group_by_[k], row, ctx_);
        key[k] = v.is_unbound() ? unbound_key()
                                : out->InternKey(v.ToTerm().ToNTriples());
        continue;
      }
      const TermId id = TermAt(row, key_slots_[k]);
      if (id == kNoTermId) {
        key[k] = unbound_key();
        continue;
      }
      auto [it, fresh] = term_keys.try_emplace(id, 0);
      if (fresh) {
        it->second = out->InternKey(
            Value::FromTerm(ctx_.terms->Get(id)).ToTerm().ToNTriples());
      }
      key[k] = it->second;
    }
    out->row_group.push_back(out->GroupOf(key, static_cast<uint32_t>(r)));
  }
}

void GroupAggregator::Merge(const Groups& part) {
  std::vector<uint32_t> key_map;
  key_map.reserve(part.key_strings.size());
  for (const std::string* key : part.key_strings) {
    key_map.push_back(groups_.InternKey(*key));
  }
  std::vector<uint32_t> group_map;
  group_map.reserve(part.keys.size());
  std::vector<uint32_t> key;
  for (size_t g = 0; g < part.keys.size(); ++g) {
    key.clear();
    for (uint32_t k : part.keys[g]) key.push_back(key_map[k]);
    group_map.push_back(groups_.GroupOf(key, part.first_row[g]));
  }
  for (uint32_t g : part.row_group) groups_.row_group.push_back(group_map[g]);
}

Status GroupAggregator::Run(
    const std::vector<Binding>& rows,
    const std::vector<std::pair<size_t, size_t>>& morsels,
    const QueryContext& qctx) {
  rows_ = &rows;
  if (morsels.size() > 1) {
    std::vector<Groups> parts(morsels.size());
    ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
      if (qctx.ShouldStop()) return;  // abandon; trip reported below
      GroupRows(morsels[m].first, morsels[m].second, qctx, &parts[m]);
    });
    RDFA_RETURN_NOT_OK(qctx.Check("group-aggregate"));
    // The first morsel's ids become the global ids; later morsels map in.
    groups_ = std::move(parts[0]);
    for (size_t m = 1; m < parts.size(); ++m) Merge(parts[m]);
  } else {
    GroupRows(0, rows.size(), qctx, &groups_);
    if (qctx.ShouldStop()) return qctx.Check("group-aggregate");
  }
  if (rows.empty() && group_by_.empty()) {
    groups_.GroupOf({}, kNoRow);  // aggregates over no rows: one group
  }

  // Output order: key tuples compared element-wise by key string, which is
  // the iteration order of a std::map keyed on vectors of those strings.
  const size_t num_keys = groups_.key_strings.size();
  std::vector<uint32_t> by_string(num_keys);
  std::iota(by_string.begin(), by_string.end(), 0u);
  std::sort(by_string.begin(), by_string.end(), [&](uint32_t a, uint32_t b) {
    return *groups_.key_strings[a] < *groups_.key_strings[b];
  });
  std::vector<uint32_t> rank(num_keys);
  for (size_t i = 0; i < num_keys; ++i) {
    rank[by_string[i]] = static_cast<uint32_t>(i);
  }
  order_.resize(groups_.keys.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    const std::vector<uint32_t>& ka = groups_.keys[a];
    const std::vector<uint32_t>& kb = groups_.keys[b];
    return std::lexicographical_compare(
        ka.begin(), ka.end(), kb.begin(), kb.end(),
        [&](uint32_t x, uint32_t y) { return rank[x] < rank[y]; });
  });

  RDFA_RETURN_NOT_OK(Accumulate(qctx));

  const bool need_rows =
      std::find(streams_.begin(), streams_.end(), false) != streams_.end() ||
      std::any_of(accs_.begin(), accs_.end(),
                  [](const Accumulator& a) { return a.fallback; });
  if (need_rows) {
    // Counting sort of the rows by group; stable, so each group's rows stay
    // in row order.
    offsets_.assign(groups_.keys.size() + 1, 0);
    for (uint32_t g : groups_.row_group) ++offsets_[g + 1];
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    members_.resize(rows.size());
    std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = 0; r < rows.size(); ++r) {
      members_[next[groups_.row_group[r]]++] = static_cast<uint32_t>(r);
    }
  }
  return Status::OK();
}

Status GroupAggregator::Accumulate(const QueryContext& qctx) {
  const size_t num_groups = groups_.keys.size();
  accs_.assign(agg_nodes_.size() * num_groups, Accumulator{});
  std::vector<size_t> streaming;
  for (size_t j = 0; j < agg_nodes_.size(); ++j) {
    if (streams_[j]) streaming.push_back(j);
  }
  if (streaming.empty()) return Status::OK();
  const std::vector<Binding>& rows = *rows_;
  for (size_t r = 0; r < rows.size(); ++r) {
    if ((r + 1) % kPollRows == 0 && qctx.ShouldStop()) {
      return qctx.Check("group-aggregate");
    }
    const Binding& row = rows[r];
    const uint32_t g = groups_.row_group[r];
    for (size_t j : streaming) {
      Accumulator& a = accs_[j * num_groups + g];
      const Expr& node = *agg_nodes_[j];
      if (node.agg_star) {
        ++a.count;
        continue;
      }
      const TermId id = TermAt(row, agg_slots_[j]);
      if (id == kNoTermId || a.fallback) continue;
      if (node.agg == AggFunc::kCount) {
        ++a.count;
        continue;
      }
      const TermDecodeCache::Numeric& n = cache_->Get(id);
      if (!n.value.has_value()) {
        a.fallback = true;
        continue;
      }
      const double v = *n.value;
      if (node.agg == AggFunc::kMin || node.agg == AggFunc::kMax) {
        // Value::Compare on numerics: the first strictly better value wins.
        if (a.count == 0 || (node.agg == AggFunc::kMin ? v < a.best_value
                                                       : v > a.best_value)) {
          a.best = id;
          a.best_value = v;
        }
      } else {
        a.sum += v;
        if (n.is_int) {
          a.int_sum += n.int_value;
        } else {
          a.all_int = false;
        }
      }
      ++a.count;
    }
  }
  return Status::OK();
}

Value GroupAggregator::Finish(size_t node, const Accumulator& acc) const {
  const Expr& agg = *agg_nodes_[node];
  if (agg.agg_star || agg.agg == AggFunc::kCount) return Value::Int(acc.count);
  switch (agg.agg) {
    case AggFunc::kSum:
      return acc.all_int ? Value::Int(acc.int_sum) : Value::Double(acc.sum);
    case AggFunc::kAvg:
      if (acc.count == 0) return Value::Unbound();
      return Value::Double(acc.sum / static_cast<double>(acc.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (acc.count == 0) return Value::Unbound();
      return Value::FromTerm(ctx_.terms->Get(acc.best));
    default:
      return Value::Unbound();  // not a streaming aggregate
  }
}

Binding GroupAggregator::Representative(size_t i) const {
  const uint32_t row = groups_.first_row[order_[i]];
  return row == kNoRow ? Binding(ctx_.vars->size(), kNoTermId)
                       : (*rows_)[row];
}

std::map<const Expr*, Value> GroupAggregator::Aggregates(size_t i) const {
  const uint32_t g = order_[i];
  const size_t num_groups = groups_.keys.size();
  std::map<const Expr*, Value> out;
  for (size_t j = 0; j < agg_nodes_.size(); ++j) {
    const Accumulator& a = accs_[j * num_groups + g];
    if (streams_[j] && !a.fallback) {
      out[agg_nodes_[j]] = Finish(j, a);
    } else {
      std::span<const uint32_t> group_rows(members_.data() + offsets_[g],
                                           offsets_[g + 1] - offsets_[g]);
      out[agg_nodes_[j]] =
          ComputeAggregate(*agg_nodes_[j], *rows_, group_rows, ctx_);
    }
  }
  return out;
}

}  // namespace rdfa::sparql
