#ifndef RDFA_SPARQL_PLANNER_H_
#define RDFA_SPARQL_PLANNER_H_

#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/bgp.h"

namespace rdfa::sparql {

/// Largest BGP the exhaustive DP join-order search enumerates (2^n subset
/// states). Above this the order-aware greedy fallback plans instead.
inline constexpr size_t kMaxDpPatterns = 8;

/// One step of an annotated left-deep plan, 1:1 with the execution-ordered
/// pattern vector.
struct PlannedStep {
  /// 'S' — seed scan (the first pattern, enumerated in `perm`'s order).
  /// 'M' — streaming merge join on the plan's interesting-order variable,
  ///       consuming `perm` (whose sort order agrees with the input rows).
  /// 'A' — adaptive: the runtime hash-vs-NLJ machinery decides per step.
  char strategy = 'A';
  rdf::Graph::Perm perm = rdf::Graph::kPermSPO;  ///< for 'S' and 'M' steps
  double est_rows = 0;  ///< estimated intermediate rows after this step
  double est_cost = 0;  ///< estimated index rows this step decodes
};

/// An annotated left-deep BGP plan: the interesting order (the variable the
/// intermediate stays sorted by — set by the first pattern's scan
/// permutation and preserved by every later operator, since all of them
/// extend rows in input order) plus per-step strategy and permutation
/// choices. Derived deterministically from the execution order alone.
struct BgpPlan {
  std::vector<PlannedStep> steps;  ///< one per pattern, execution order
  int head_slot = -1;              ///< interesting-order binding slot
  bool used_dp = false;            ///< order came from the DP search
  double est_cost = 0;             ///< sum of step costs
  /// Explainable plan shape (strategies, permutations, expected rows) keyed
  /// by the patterns' source indexes; surfaced via ExecStats::ToJson and
  /// the bench plan dumps.
  std::string ToJson(const std::vector<int>& source_order) const;
};

/// Human-readable permutation name ("SPO" ... "OPS").
const char* PermName(rdf::Graph::Perm perm);

/// Observability counters one DP search fills (when the caller passes a
/// non-null out-param): how long planning took and how much of the state
/// space it walked. Surfaced as the "dp-plan" trace span and the
/// rdfa_dp_plan_ms histogram.
struct DpStats {
  double plan_ms = 0;
  size_t states_considered = 0;  ///< (subset, head) states relaxed into
  size_t states_expanded = 0;    ///< valid states whose extensions were tried
};

/// DP join-order search (DPsize over subsets) for BGPs of up to
/// kMaxDpPatterns patterns: enumerates every connected left-deep order and
/// every first-pattern sort order, costing steps in estimated index rows
/// decoded — NLJ as rows x calibrated per-row fanout, hash as its build
/// width, merge (when the step joins exactly on the seeded interesting
/// order) as the cheaper of the two — and returns the cheapest order as
/// source indexes. Deterministic: ties keep the earliest-enumerated state.
/// Callers handle larger BGPs with the greedy fallback. `stats` (nullable)
/// receives planning time and search-space counters.
std::vector<int> PlanBgpOrderDp(const rdf::Graph& graph,
                                const std::vector<CompiledPattern>& patterns,
                                DpStats* stats = nullptr);

/// Annotates an execution-ordered pattern sequence: picks the interesting
/// order (the first pattern's free lane that qualifies the most downstream
/// merge steps; ties prefer the s/p/o lane order, zero qualifiers means no
/// preferred order), the first step's scan permutation, and each later
/// step's merge qualification + permutation. A step merge-qualifies iff its
/// only bound-variable lane is the interesting-order variable — then its
/// group replay enumerates exactly the per-row NLJ ranges, in the same
/// order, which is the byte-identity argument for demoting 'M' steps to
/// hash or NLJ.
BgpPlan AnnotateBgpPlan(const rdf::Graph& graph,
                        const std::vector<CompiledPattern>& ordered);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_PLANNER_H_
