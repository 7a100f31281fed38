#ifndef RDFA_SPARQL_AST_H_
#define RDFA_SPARQL_AST_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace rdfa::sparql {

/// A node term in a triple pattern: a variable or a concrete RDF term.
struct NodePattern {
  bool is_var = false;
  std::string var;   // without '?'
  rdf::Term term;    // valid when !is_var

  static NodePattern Var(std::string name) {
    NodePattern n;
    n.is_var = true;
    n.var = std::move(name);
    return n;
  }
  static NodePattern Const(rdf::Term t) {
    NodePattern n;
    n.term = std::move(t);
    return n;
  }
};

/// Expression AST used in FILTER, BIND, HAVING, SELECT expressions and
/// GROUP BY.
struct Expr;
using ExprPtr = std::shared_ptr<Expr>;
struct GraphPattern;

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kGroupConcat, kSample };

struct Expr {
  enum class Kind {
    kVar,        ///< ?x
    kTerm,       ///< literal or IRI constant
    kUnary,      ///< ! or unary -
    kBinary,     ///< || && = != < <= > >= + - * /
    kCall,       ///< builtin / cast function by upper-case name
    kAggregate,  ///< COUNT/SUM/AVG/MIN/MAX/GROUP_CONCAT/SAMPLE
    kExists,     ///< EXISTS { ... } / NOT EXISTS { ... }
    kIn,         ///< ?x IN (t1, t2, ...) / NOT IN
  };

  Kind kind = Kind::kTerm;
  // kVar
  std::string var;
  // kTerm
  rdf::Term term;
  // kUnary / kBinary: op is "!", "-", "||", "&&", "=", "!=", "<", "<=",
  // ">", ">=", "+", "-", "*", "/"
  std::string op;
  std::vector<ExprPtr> args;  // operands or call arguments
  // kCall
  std::string call_name;  // upper-case, e.g. "MONTH", "STR", "REGEX"
  // kAggregate
  AggFunc agg = AggFunc::kCount;
  bool agg_distinct = false;
  bool agg_star = false;       // COUNT(*)
  std::string agg_separator;   // GROUP_CONCAT
  // kExists / kIn: `negated` flips to NOT EXISTS / NOT IN. For kExists,
  // `pattern` is the group to probe; for kIn, args[0] is the probe and
  // args[1..] the candidates.
  bool negated = false;
  std::shared_ptr<GraphPattern> pattern;

  static ExprPtr MakeVar(std::string name);
  static ExprPtr MakeTerm(rdf::Term t);
  static ExprPtr MakeUnary(std::string op, ExprPtr a);
  static ExprPtr MakeBinary(std::string op, ExprPtr a, ExprPtr b);
  static ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args);
  static ExprPtr MakeAggregate(AggFunc f, ExprPtr arg, bool distinct,
                               std::string separator = ", ");

  /// True if this expression (recursively) contains an aggregate node.
  bool ContainsAggregate() const;

  /// True if this expression (recursively) contains an EXISTS node.
  bool ContainsExists() const;

  /// Adds every variable name mentioned by this expression to `*out`
  /// (EXISTS subpatterns excluded — their variables have local scope).
  void CollectVars(std::set<std::string>* out) const;
};

struct TriplePattern {
  NodePattern s, p, o;
};

struct SelectQuery;

/// One element of a group graph pattern, in source order.
struct PatternElement {
  enum class Kind {
    kTriple,
    kFilter,
    kOptional,
    kUnion,
    kBind,
    kSubSelect,
    kValues,
    kMinus,
    kTransPath,  ///< s <p>+ o  or  s <p>* o (transitive closure)
  };
  Kind kind = Kind::kTriple;
  TriplePattern triple;                      // kTriple / kTransPath endpoints
  ExprPtr filter;                            // kFilter
  std::shared_ptr<GraphPattern> child;       // kOptional / kUnion lhs / kMinus
  std::shared_ptr<GraphPattern> child2;      // kUnion rhs
  ExprPtr bind_expr;                         // kBind
  std::string bind_var;                      // kBind target
  std::shared_ptr<SelectQuery> sub_select;   // kSubSelect
  std::string values_var;                    // kValues (single-var form)
  std::vector<rdf::Term> values_terms;       // kValues
  bool path_reflexive = false;               // kTransPath: '*' includes self
};

struct GraphPattern {
  std::vector<PatternElement> elements;
};

/// Adds every variable name evaluating `pattern` can give a slot to, or an
/// expression in it can read, to `*out`: triple and path endpoints, BIND
/// and VALUES targets, sub-select columns and the variables of FILTER and
/// BIND expressions, EXISTS probes and nested groups included. Its size
/// bounds the slot count of any evaluation of the pattern.
void CollectPatternVars(const GraphPattern& pattern,
                        std::set<std::string>* out);

/// One projected column: a plain variable or `(expr AS ?alias)`.
struct Projection {
  std::string var;   // output name (alias for expressions)
  ExprPtr expr;      // null for plain variables
};

struct OrderKey {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectQuery {
  bool distinct = false;
  bool select_all = false;  // SELECT *
  std::vector<Projection> projections;
  GraphPattern where;
  std::vector<ExprPtr> group_by;
  std::vector<ExprPtr> having;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;   // -1: none
  int64_t offset = 0;
};

struct ConstructQuery {
  std::vector<TriplePattern> construct_template;
  GraphPattern where;
};

struct AskQuery {
  GraphPattern where;
};

/// DESCRIBE <iri>... or DESCRIBE ?var WHERE { ... }: the description of
/// each named/matched resource is its Concise Bounded Description.
struct DescribeQuery {
  std::vector<rdf::Term> resources;  ///< explicit IRIs
  std::vector<std::string> vars;     ///< variables bound by `where`
  GraphPattern where;                ///< may be empty
};

/// A parsed query of any supported form.
struct ParsedQuery {
  enum class Form { kSelect, kConstruct, kAsk, kDescribe };
  Form form = Form::kSelect;
  SelectQuery select;
  ConstructQuery construct;
  AskQuery ask;
  DescribeQuery describe;
};

/// A parsed SPARQL 1.1 Update request (the subset a triple-store needs):
///   INSERT DATA { ground triples }
///   DELETE DATA { ground triples }
///   DELETE WHERE { pattern }                 (template = the pattern itself)
///   DELETE { t } INSERT { t } WHERE { p }    (either template optional)
struct UpdateRequest {
  enum class Kind { kInsertData, kDeleteData, kDeleteWhere, kModify };
  Kind kind = Kind::kInsertData;
  std::vector<TriplePattern> insert_template;
  std::vector<TriplePattern> delete_template;
  GraphPattern where;  // kDeleteWhere / kModify
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_AST_H_
