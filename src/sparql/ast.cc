#include "sparql/ast.h"

namespace rdfa::sparql {

ExprPtr Expr::MakeVar(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Expr::MakeTerm(rdf::Term t) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kTerm;
  e->term = std::move(t);
  return e;
}

ExprPtr Expr::MakeUnary(std::string op, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnary;
  e->op = std::move(op);
  e->args.push_back(std::move(a));
  return e;
}

ExprPtr Expr::MakeBinary(std::string op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

ExprPtr Expr::MakeCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCall;
  e->call_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::MakeAggregate(AggFunc f, ExprPtr arg, bool distinct,
                            std::string separator) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kAggregate;
  e->agg = f;
  e->agg_distinct = distinct;
  e->agg_separator = std::move(separator);
  if (arg != nullptr) {
    e->args.push_back(std::move(arg));
  } else {
    e->agg_star = true;
  }
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind == Kind::kAggregate) return true;
  for (const ExprPtr& a : args) {
    if (a != nullptr && a->ContainsAggregate()) return true;
  }
  return false;
}

bool Expr::ContainsExists() const {
  if (kind == Kind::kExists) return true;
  for (const ExprPtr& a : args) {
    if (a != nullptr && a->ContainsExists()) return true;
  }
  return false;
}

void Expr::CollectVars(std::set<std::string>* out) const {
  if (kind == Kind::kVar) out->insert(var);
  for (const ExprPtr& a : args) {
    if (a != nullptr) a->CollectVars(out);
  }
}

namespace {

void CollectExprVars(const Expr& e, std::set<std::string>* out) {
  if (e.kind == Expr::Kind::kVar) out->insert(e.var);
  if (e.pattern != nullptr) CollectPatternVars(*e.pattern, out);
  for (const ExprPtr& a : e.args) {
    if (a != nullptr) CollectExprVars(*a, out);
  }
}

}  // namespace

void CollectPatternVars(const GraphPattern& pattern,
                        std::set<std::string>* out) {
  for (const PatternElement& el : pattern.elements) {
    for (const NodePattern* n : {&el.triple.s, &el.triple.p, &el.triple.o}) {
      if (n->is_var) out->insert(n->var);
    }
    if (el.filter != nullptr) CollectExprVars(*el.filter, out);
    if (el.bind_expr != nullptr) {
      CollectExprVars(*el.bind_expr, out);
      out->insert(el.bind_var);
    }
    if (el.kind == PatternElement::Kind::kValues) out->insert(el.values_var);
    if (el.child != nullptr) CollectPatternVars(*el.child, out);
    if (el.child2 != nullptr) CollectPatternVars(*el.child2, out);
    if (el.sub_select != nullptr) {
      for (const Projection& p : el.sub_select->projections) {
        out->insert(p.var);
      }
      CollectPatternVars(el.sub_select->where, out);
    }
  }
}

}  // namespace rdfa::sparql
