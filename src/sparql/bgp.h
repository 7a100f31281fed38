#ifndef RDFA_SPARQL_BGP_H_
#define RDFA_SPARQL_BGP_H_

#include <functional>
#include <vector>

#include "common/query_context.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/binding_table.h"
#include "sparql/exec_stats.h"
#include "sparql/expr_eval.h"

namespace rdfa::sparql {

/// A triple pattern with variables resolved to binding slots and constants
/// interned against a graph.
struct CompiledPattern {
  int s_var = -1, p_var = -1, o_var = -1;  // -1: constant position
  rdf::TermId s_id = rdf::kNoTermId;
  rdf::TermId p_id = rdf::kNoTermId;
  rdf::TermId o_id = rdf::kNoTermId;
  /// A constant term that does not occur in the graph: the pattern can never
  /// match, the whole BGP is empty.
  bool impossible = false;
};

/// Resolves variables through `vars` (allocating slots) and constants
/// through the graph's term table (without interning — absent terms mark the
/// pattern impossible).
CompiledPattern CompileTriple(const TriplePattern& tp, VarTable* vars,
                              const rdf::Graph& graph);

/// Calibrated per-row cardinality estimate: the constant-narrowed match
/// count, divided by the distinct count of each bound-variable lane within
/// that population (predicate-local when the predicate is constant).
/// Shared by the greedy reorderer, the adaptive hash decision, and the
/// planner-v2 DP cost model.
double CalibratedRowEstimate(const rdf::Graph& graph, const CompiledPattern& p,
                             bool s_bound, bool p_bound, bool o_bound);

/// How JoinBgp extends rows through a pattern.
enum class JoinStrategy {
  /// Per-pattern cost-based choice between the two strategies below (the
  /// default): hash when one build pays for many probes, NLJ otherwise.
  /// With JoinOptions::use_dp, planner-v2 runs also take merge steps the
  /// plan marks qualified.
  kAdaptive,
  /// One binary-search index range scan per input row.
  kNestedLoop,
  /// Materialize the pattern's index range once into a hash table keyed on
  /// the join-variable lane(s), then probe every input row in order
  /// (build-once / probe-many). Probing in input order — with buckets built
  /// in index-scan order — keeps results byte-identical to the serial NLJ.
  kHash,
  /// Planner v2: streaming merge join. The first pattern scans the
  /// permutation whose sort order matches the plan's interesting-order
  /// variable; later patterns that join on that variable stream an
  /// order-agreeing permutation cursor against the sorted input, skipping
  /// non-candidate keys via SeekGE (sideways information passing) and
  /// replaying each decoded key group across its input-row run — no build
  /// side is ever materialized. Steps the plan does not mark as merges fall
  /// back to the adaptive hash/NLJ machinery. On seeded (non-trivial) input
  /// rows — OPTIONAL/UNION/EXISTS re-entries — this degrades to kAdaptive.
  kMerge,
};

/// Called by JoinBgp after each step with the pattern that step joined and
/// the rows it produced. It may drop rows, but only with a stable compaction
/// (BindingTable::Retain): later steps rely on the row order. A non-OK
/// status stops the join with that status.
using JoinStepHook =
    std::function<Status(const CompiledPattern&, BindingTable*)>;

/// Knobs and instrumentation for one JoinBgp call.
struct JoinOptions {
  /// Thread budget: <=1 runs the serial path. Parallelism is morsel-based —
  /// the input rows (or, for a single seed row, the first pattern's
  /// materialized index range) are split into contiguous morsels, extended
  /// independently, and concatenated in morsel order, so the result is
  /// byte-identical to the serial join.
  int threads = 1;
  /// When set, join order / rows-scanned / strategy / morsel counters are
  /// appended.
  ExecStats* stats = nullptr;
  /// When set, the join checks the context between patterns (and inside the
  /// hash-build loop) and every few hundred enumerated index rows; a
  /// tripped deadline / cancellation unwinds with the typed Status and
  /// `*rows` left in an unspecified partial state. Null = never stops.
  const QueryContext* ctx = nullptr;
  /// Join-strategy override. kAdaptive decides per pattern; kNestedLoop /
  /// kHash force one path (kHash still falls back to NLJ for patterns with
  /// no bound join variable, where no hash key exists).
  JoinStrategy strategy = JoinStrategy::kAdaptive;
  /// Reorderer cost model: true uses per-predicate GraphStats fanout
  /// calibration, false the legacy range-width + flat-discount heuristic
  /// (the ablation benchmark toggles this).
  bool calibrated_estimates = true;
  /// Planner v2 join ordering: replaces the greedy reorderer with an
  /// exhaustive DP search over subsets (<= 8 patterns; order-aware greedy
  /// above that), costed from the calibrated GraphStats and aware of which
  /// orders enable merge joins. Applies to trivial-seed BGP runs and, when
  /// set, overrides a false `reorder` flag — DP *is* the reorderer, so it is
  /// immune to source-order accidents. Orders only change performance,
  /// never the result set.
  bool use_dp = false;
  /// Sideways information passing inside merge steps: true (default) seeks
  /// the cursor past non-candidate merge keys; false advances linearly,
  /// decoding every key in the range (the bench --ablate-sip baseline;
  /// forces serial merge execution). Identical result bytes either way.
  bool sip = true;
  /// When set, runs after every executed step: the executor applies the
  /// FILTERs that step made ready. The join stops at the first step that
  /// leaves no rows, so later steps and their hooks never run.
  const JoinStepHook* after_step = nullptr;
};

/// Extends every row of `*rows` through all `patterns` by index
/// nested-loop joins. When `reorder` is set, patterns are greedily ordered
/// by estimated selectivity given the variables bound so far (the ablation
/// benchmark toggles this). The table must be wide enough for every
/// pattern variable's slot. Returns non-OK only when `opts.ctx` trips
/// (DeadlineExceeded/Cancelled) or `opts.after_step` fails.
Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               bool reorder, const JoinOptions& opts, BindingTable* rows);

/// Serial convenience overload (threads = 1, no stats, no context).
Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               bool reorder, BindingTable* rows);

/// Plans a trivial-seed BGP's join order without executing anything: the
/// same order JoinBgp would choose for a top-level run — the DP search when
/// `opts.use_dp` and the BGP is small enough, the greedy reorderer when
/// `reorder`, source order otherwise. Returns source indexes in execution
/// order. The EXPLAIN path pairs this with AnnotateBgpPlan (planner.h) to
/// render the plan shape without touching any data.
std::vector<int> PlanBgpOrder(const rdf::Graph& graph,
                              const std::vector<CompiledPattern>& patterns,
                              const JoinOptions& opts, bool reorder);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_BGP_H_
