#ifndef RDFA_SPARQL_KERNELS_H_
#define RDFA_SPARQL_KERNELS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "rdf/term_table.h"
#include "sparql/ast.h"
#include "sparql/expr_eval.h"
#include "sparql/value.h"

namespace rdfa::sparql {

/// Per-query memo of what Value::FromTerm makes of a term, numerically.
/// Every distinct TermId is decoded once; FILTER comparisons and streaming
/// aggregates then read the compact entry instead of building a Value per
/// row. TermIds never change meaning within one graph (its term table only
/// appends), so an entry stays valid for as long as the cache lives.
/// Not thread-safe: callers use it from serial code only.
class TermDecodeCache {
 public:
  struct Numeric {
    std::optional<double> value;  ///< Value::FromTerm(term).AsNumeric()
    bool is_int = false;          ///< FromTerm yields Value::Kind::kInt
    int64_t int_value = 0;        ///< valid when is_int
  };

  explicit TermDecodeCache(const rdf::TermTable* terms) : terms_(terms) {}

  /// Precondition: id names a term of the table.
  const Numeric& Get(rdf::TermId id);
  void Clear() { entries_.clear(); }

 private:
  const rdf::TermTable* terms_;
  std::unordered_map<rdf::TermId, Numeric> entries_;
};

/// A FILTER of the form `?v op c` (op one of < <= > >= = !=, c a numeric
/// constant), compiled once: the slot is resolved and the constant decoded
/// up front, and each row compares doubles exactly as Value::Compare /
/// Value::Equals would.
class NumericComparison {
 public:
  /// nullopt when `filter` does not have that shape or `?v` has no slot.
  static std::optional<NumericComparison> Compile(const Expr& filter,
                                                  const VarTable& vars);

  /// The filter's verdict for `row`, or nullopt when the row's term is
  /// unbound or not numeric — the caller then evaluates the expression.
  std::optional<bool> Test(const Binding& row, TermDecodeCache* cache) const;

 private:
  enum class Op { kLt, kLe, kGt, kGe, kEq, kNe };
  size_t slot_ = 0;
  Op op_ = Op::kEq;
  double constant_ = 0;
};

/// The one GROUP BY + aggregate implementation of the executor.
///
/// Rows are assigned to groups on dense canonical key ids: a plain variable
/// keys on the N-Triples of Value::FromTerm(term).ToTerm(), computed once
/// per distinct TermId (so "01"^^xsd:integer and "1"^^xsd:integer share a
/// group); computed keys (YEAR(?d)) go through EvalExpr and are interned
/// into the same id space. Only the final groups are sorted, by their
/// N-Triples key tuple, which is the order a std::map over key strings
/// would give. COUNT, SUM, AVG, MIN and MAX over a plain variable without
/// DISTINCT accumulate in row order while streaming; every other aggregate,
/// and any group that meets a non-numeric value in a numeric one, is
/// computed from the group's rows by the generic evaluator.
class GroupAggregator {
 public:
  /// `agg_nodes` are the aggregate expressions to compute per group. The
  /// referenced expressions, `ctx` and `cache` must outlive the aggregator.
  GroupAggregator(const std::vector<ExprPtr>& group_by,
                  std::vector<const Expr*> agg_nodes, const EvalContext& ctx,
                  TermDecodeCache* cache);

  /// Groups `rows` (which must outlive the aggregator) and runs the
  /// streaming accumulators. More than one morsel groups the morsels in
  /// parallel and merges their groups in morsel order; accumulation always
  /// walks the rows in order, so floating-point sums round exactly as in a
  /// serial run. Returns a non-OK status when `qctx` trips.
  Status Run(const std::vector<Binding>& rows,
             const std::vector<std::pair<size_t, size_t>>& morsels,
             const QueryContext& qctx);

  /// Number of groups; group i below is the i-th in output order.
  size_t size() const { return order_.size(); }

  /// The group's first row (all-unbound for the empty-input group).
  Binding Representative(size_t i) const;

  /// Every aggregate node's value for group i. Safe to call concurrently
  /// for different groups.
  std::map<const Expr*, Value> Aggregates(size_t i) const;

 private:
  struct TupleHash {
    size_t operator()(const std::vector<uint32_t>& t) const;
  };
  /// The groups of a run of rows: interned key strings, each group's key
  /// tuple (of key ids) and first row, and each row's group.
  struct Groups {
    std::unordered_map<std::string, uint32_t> key_ids;
    std::vector<const std::string*> key_strings;  ///< by key id
    std::unordered_map<std::vector<uint32_t>, uint32_t, TupleHash> ids;
    std::vector<std::vector<uint32_t>> keys;  ///< by group
    std::vector<uint32_t> first_row;          ///< by group
    std::vector<uint32_t> row_group;          ///< by row of the run

    uint32_t InternKey(std::string key);
    uint32_t GroupOf(const std::vector<uint32_t>& key, uint32_t row);
  };
  struct Accumulator {
    int64_t count = 0;  ///< values seen (rows, for COUNT(*))
    double sum = 0;
    int64_t int_sum = 0;
    bool all_int = true;
    bool fallback = false;  ///< met a non-numeric value
    rdf::TermId best = rdf::kNoTermId;  ///< MIN/MAX: first strictly best
    double best_value = 0;
  };

  void GroupRows(size_t lo, size_t hi, const QueryContext& qctx,
                 Groups* out) const;
  void Merge(const Groups& part);
  Status Accumulate(const QueryContext& qctx);
  Value Finish(size_t node, const Accumulator& acc) const;

  std::vector<const Expr*> group_by_;
  std::vector<int> key_slots_;  ///< plain-variable key slot, -1 otherwise
  std::vector<const Expr*> agg_nodes_;
  std::vector<int> agg_slots_;  ///< argument slot of a streaming node
  std::vector<bool> streams_;   ///< node accumulates while streaming
  EvalContext ctx_;
  TermDecodeCache* cache_;
  const std::vector<Binding>* rows_ = nullptr;

  Groups groups_;
  std::vector<uint32_t> order_;    ///< output position -> group
  std::vector<Accumulator> accs_;  ///< node-major: [node * groups + group]
  // Each group's rows in row order (offsets_[g]..offsets_[g + 1] into
  // members_), built only when some aggregate needs the rows.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> members_;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_KERNELS_H_
