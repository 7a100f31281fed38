#ifndef RDFA_SPARQL_EXPR_EVAL_H_
#define RDFA_SPARQL_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term_table.h"
#include "sparql/ast.h"
#include "sparql/binding_table.h"
#include "sparql/value.h"

namespace rdfa::sparql {

/// Maps variable names to dense slot indexes inside bindings.
class VarTable {
 public:
  /// Slot of `name`, allocating it if new.
  int IdOf(const std::string& name);
  /// Slot of `name` or -1 if never seen.
  int Find(const std::string& name) const;
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::map<std::string, int> index_;
  std::vector<std::string> names_;
};

/// One solution row held on its own (a group's representative, an output
/// row kept for ORDER BY); rows being joined live in a BindingTable.
using Binding = std::vector<rdf::TermId>;

/// Everything an expression needs at evaluation time. `terms` is mutable
/// because projection/BIND may intern freshly computed literals.
/// `agg_values`, when set, supplies precomputed per-group values for
/// aggregate nodes (keyed by AST node identity). `exists_eval`, when set,
/// evaluates EXISTS { ... } subpatterns against the current row (wired up
/// by the executor; without it EXISTS yields an error value).
struct EvalContext {
  rdf::TermTable* terms = nullptr;
  const VarTable* vars = nullptr;
  const std::map<const Expr*, Value>* agg_values = nullptr;
  const std::function<bool(const GraphPattern&, RowView)>* exists_eval =
      nullptr;
};

/// Evaluates `expr` over the row `binding`. Evaluation errors and unbound
/// variables both yield Value::Unbound() (SPARQL type errors collapse to
/// false-in-filters, which is how the callers consume them).
Value EvalExpr(const Expr& expr, RowView binding, const EvalContext& ctx);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_EXPR_EVAL_H_
