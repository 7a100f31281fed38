#include "sparql/expr_eval.h"

#include <cmath>
#include <regex>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::sparql {

using rdf::Term;

int VarTable::IdOf(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  index_.emplace(name, id);
  names_.push_back(name);
  return id;
}

int VarTable::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

namespace {

Value EvalVar(const Expr& e, RowView binding, const EvalContext& ctx) {
  int slot = ctx.vars->Find(e.var);
  if (slot < 0 || static_cast<size_t>(slot) >= binding.size() ||
      binding[slot] == rdf::kNoTermId) {
    return Value::Unbound();
  }
  return Value::FromTerm(ctx.terms->Get(binding[slot]));
}

Value EvalUnary(const Expr& e, RowView binding, const EvalContext& ctx) {
  Value a = EvalExpr(*e.args[0], binding, ctx);
  if (e.op == "!") {
    auto b = a.EffectiveBool();
    if (!b.has_value()) return Value::Unbound();
    return Value::Bool(!*b);
  }
  // unary minus
  auto n = a.AsNumeric();
  if (!n.has_value()) return Value::Unbound();
  if (a.kind() == Value::Kind::kInt) return Value::Int(-a.int_value());
  return Value::Double(-*n);
}

Value NumericBinary(const std::string& op, const Value& a, const Value& b) {
  auto na = a.AsNumeric();
  auto nb = b.AsNumeric();
  if (!na.has_value() || !nb.has_value()) return Value::Unbound();
  bool both_int =
      a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt;
  if (op == "+") {
    return both_int ? Value::Int(a.int_value() + b.int_value())
                    : Value::Double(*na + *nb);
  }
  if (op == "-") {
    return both_int ? Value::Int(a.int_value() - b.int_value())
                    : Value::Double(*na - *nb);
  }
  if (op == "*") {
    return both_int ? Value::Int(a.int_value() * b.int_value())
                    : Value::Double(*na * *nb);
  }
  if (op == "/") {
    if (*nb == 0) return Value::Unbound();
    return Value::Double(*na / *nb);
  }
  return Value::Unbound();
}

Value EvalBinary(const Expr& e, RowView binding, const EvalContext& ctx) {
  const std::string& op = e.op;
  if (op == "||" || op == "&&") {
    auto a = EvalExpr(*e.args[0], binding, ctx).EffectiveBool();
    auto b = EvalExpr(*e.args[1], binding, ctx).EffectiveBool();
    if (op == "||") {
      if ((a.has_value() && *a) || (b.has_value() && *b)) {
        return Value::Bool(true);
      }
      if (a.has_value() && b.has_value()) return Value::Bool(false);
      return Value::Unbound();
    }
    if ((a.has_value() && !*a) || (b.has_value() && !*b)) {
      return Value::Bool(false);
    }
    if (a.has_value() && b.has_value()) return Value::Bool(true);
    return Value::Unbound();
  }

  Value a = EvalExpr(*e.args[0], binding, ctx);
  Value b = EvalExpr(*e.args[1], binding, ctx);
  if (op == "=" || op == "!=") {
    auto eq = Value::Equals(a, b);
    if (!eq.has_value()) return Value::Unbound();
    return Value::Bool(op == "=" ? *eq : !*eq);
  }
  if (op == "<" || op == "<=" || op == ">" || op == ">=") {
    auto c = Value::Compare(a, b);
    if (!c.has_value()) return Value::Unbound();
    if (op == "<") return Value::Bool(*c < 0);
    if (op == "<=") return Value::Bool(*c <= 0);
    if (op == ">") return Value::Bool(*c > 0);
    return Value::Bool(*c >= 0);
  }
  return NumericBinary(op, a, b);
}

/// Translates SPARQL regex flags (17.4.3.14) to std::regex flags. Honored:
/// `i` (case-insensitive), `m` (multiline anchors), `q` (pattern is a
/// literal string — implemented by escaping, see CachedRegex). `s`
/// (dot-matches-newline) has no std::regex equivalent and is explicitly
/// rejected, as is any unknown letter: the call evaluates to an error
/// (unbound) instead of silently ignoring the flag.
std::optional<std::regex::flag_type> TranslateRegexFlags(
    const std::string& flags, bool* literal) {
  auto out = std::regex::ECMAScript;
  *literal = false;
  for (char f : flags) {
    switch (f) {
      case 'i':
        out |= std::regex::icase;
        break;
      case 'm':
        out |= std::regex::multiline;
        break;
      case 'q':
        *literal = true;
        break;
      default:  // 's', 'x', or garbage: unsupported
        return std::nullopt;
    }
  }
  return out;
}

/// Escapes every ECMAScript metacharacter so the pattern matches literally
/// (the SPARQL `q` flag).
std::string EscapeRegexLiteral(const std::string& pattern) {
  static const std::string kMeta = R"(\^$.|?*+()[]{})";
  std::string out;
  out.reserve(pattern.size());
  for (char c : pattern) {
    if (kMeta.find(c) != std::string::npos) out += '\\';
    out += c;
  }
  return out;
}

/// Compiles (pattern, flags) to a std::regex, serving repeats from a
/// per-thread cache — REGEX/REPLACE run once per row, and recompiling a
/// std::regex per row dominated filter evaluation before this cache.
/// nullptr means invalid pattern or unsupported flags. The cache is
/// thread_local so morsel workers never contend or share regex objects
/// (std::regex matching is const but caching a shared object across threads
/// would still need lifetime care; per-thread is simpler and contention-free).
const std::regex* CachedRegex(const std::string& pattern,
                              const std::string& flags) {
  struct Entry {
    bool valid = false;
    std::regex re;
  };
  thread_local std::map<std::pair<std::string, std::string>, Entry> cache;
  // Bound the cache: patterns are almost always per-expression-node
  // constants, but a computed pattern could otherwise grow it per row.
  constexpr size_t kMaxEntries = 256;
  auto key = std::make_pair(pattern, flags);
  auto it = cache.find(key);
  if (it == cache.end()) {
    if (cache.size() >= kMaxEntries) cache.clear();
    Entry entry;
    bool literal = false;
    auto f = TranslateRegexFlags(flags, &literal);
    if (f.has_value()) {
      try {
        entry.re.assign(literal ? EscapeRegexLiteral(pattern) : pattern, *f);
        entry.valid = true;
      } catch (const std::regex_error&) {
        entry.valid = false;
      }
    }
    it = cache.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second.valid ? &it->second.re : nullptr;
}

Value EvalDateComponent(const Value& v, int component) {
  std::string lexical;
  if (v.kind() == Value::Kind::kTerm && v.term().is_literal()) {
    lexical = v.term().lexical();
  } else if (v.kind() == Value::Kind::kString) {
    lexical = v.string_value();
  } else {
    return Value::Unbound();
  }
  auto c = DateTimeComponent(lexical, component);
  if (!c.has_value()) return Value::Unbound();
  return Value::Int(*c);
}

Value EvalCall(const Expr& e, RowView binding, const EvalContext& ctx) {
  const std::string& name = e.call_name;

  if (name == "BOUND") {
    if (e.args.size() != 1 || e.args[0]->kind != Expr::Kind::kVar) {
      return Value::Unbound();
    }
    int slot = ctx.vars->Find(e.args[0]->var);
    bool bound = slot >= 0 && static_cast<size_t>(slot) < binding.size() &&
                 binding[slot] != rdf::kNoTermId;
    return Value::Bool(bound);
  }
  if (name == "COALESCE") {
    for (const ExprPtr& a : e.args) {
      Value v = EvalExpr(*a, binding, ctx);
      if (!v.is_unbound()) return v;
    }
    return Value::Unbound();
  }
  if (name == "IF") {
    if (e.args.size() != 3) return Value::Unbound();
    auto cond = EvalExpr(*e.args[0], binding, ctx).EffectiveBool();
    if (!cond.has_value()) return Value::Unbound();
    return EvalExpr(*e.args[*cond ? 1 : 2], binding, ctx);
  }

  // Remaining calls evaluate all arguments eagerly.
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) args.push_back(EvalExpr(*a, binding, ctx));
  for (const Value& v : args) {
    if (v.is_unbound() && name != "CONCAT") return Value::Unbound();
  }

  if (name == "STR") return Value::String(args[0].AsString());
  if (name == "LANG") {
    if (args[0].kind() == Value::Kind::kTerm && args[0].term().is_literal()) {
      return Value::String(args[0].term().lang());
    }
    return Value::String("");
  }
  if (name == "DATATYPE") {
    if (args[0].kind() == Value::Kind::kTerm && args[0].term().is_literal()) {
      const std::string& dt = args[0].term().datatype();
      return Value::FromTerm(
          Term::Iri(dt.empty() ? rdf::xsd::kString : dt));
    }
    if (args[0].is_numeric()) {
      return Value::FromTerm(
          Term::Iri(args[0].kind() == Value::Kind::kInt ? rdf::xsd::kInteger
                                                        : rdf::xsd::kDouble));
    }
    return Value::Unbound();
  }
  if (name == "YEAR") return EvalDateComponent(args[0], 0);
  if (name == "MONTH") return EvalDateComponent(args[0], 1);
  if (name == "DAY") return EvalDateComponent(args[0], 2);
  if (name == "HOURS") return EvalDateComponent(args[0], 3);
  if (name == "MINUTES") return EvalDateComponent(args[0], 4);
  if (name == "SECONDS") return EvalDateComponent(args[0], 5);
  if (name == "ABS" || name == "CEIL" || name == "FLOOR" || name == "ROUND") {
    auto n = args[0].AsNumeric();
    if (!n.has_value()) return Value::Unbound();
    if (name == "ABS") {
      return args[0].kind() == Value::Kind::kInt
                 ? Value::Int(std::llabs(args[0].int_value()))
                 : Value::Double(std::fabs(*n));
    }
    double r = name == "CEIL" ? std::ceil(*n)
               : name == "FLOOR" ? std::floor(*n)
                                 : std::round(*n);
    return Value::Int(static_cast<int64_t>(r));
  }
  if (name == "CONCAT") {
    std::string out;
    for (const Value& v : args) out += v.AsString();
    return Value::String(std::move(out));
  }
  if (name == "STRLEN") {
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (name == "UCASE") return Value::String(ToUpperAscii(args[0].AsString()));
  if (name == "LCASE") return Value::String(ToLowerAscii(args[0].AsString()));
  if (name == "CONTAINS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(args[0].AsString().find(args[1].AsString()) !=
                       std::string::npos);
  }
  if (name == "STRSTARTS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(StartsWith(args[0].AsString(), args[1].AsString()));
  }
  if (name == "STRENDS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(EndsWith(args[0].AsString(), args[1].AsString()));
  }
  if (name == "REGEX") {
    if (args.size() < 2) return Value::Unbound();
    const std::regex* re = CachedRegex(
        args[1].AsString(), args.size() >= 3 ? args[2].AsString() : "");
    if (re == nullptr) return Value::Unbound();
    return Value::Bool(std::regex_search(args[0].AsString(), *re));
  }
  if (name == "SUBSTR") {
    if (args.size() < 2) return Value::Unbound();
    std::string s = args[0].AsString();
    auto start = args[1].AsNumeric();
    if (!start.has_value() || std::isnan(*start)) return Value::Unbound();
    // SPARQL SUBSTR is 1-based. Clamp start/length into [0, s.size()]
    // *before* casting: a double outside the target range (SUBSTR(?s, 1e30),
    // negative, inf) is undefined behavior to convert to size_t. Fractional
    // arguments keep the historical truncation semantics.
    const double size_d = static_cast<double>(s.size());
    size_t begin;
    if (*start >= size_d + 1) return Value::String("");
    begin = *start >= 1 ? static_cast<size_t>(*start) - 1 : 0;
    if (begin >= s.size()) return Value::String("");
    size_t len = std::string::npos;
    if (args.size() >= 3) {
      auto n = args[2].AsNumeric();
      if (!n.has_value() || std::isnan(*n) || *n < 0) return Value::Unbound();
      len = *n >= size_d ? std::string::npos : static_cast<size_t>(*n);
    }
    return Value::String(s.substr(begin, len));
  }
  if (name == "STRBEFORE" || name == "STRAFTER") {
    if (args.size() != 2) return Value::Unbound();
    std::string s = args[0].AsString();
    std::string sep = args[1].AsString();
    size_t pos = s.find(sep);
    if (pos == std::string::npos) return Value::String("");
    return Value::String(name == "STRBEFORE" ? s.substr(0, pos)
                                             : s.substr(pos + sep.size()));
  }
  if (name == "REPLACE") {
    if (args.size() < 3) return Value::Unbound();
    const std::regex* re = CachedRegex(
        args[1].AsString(), args.size() >= 4 ? args[3].AsString() : "");
    if (re == nullptr) return Value::Unbound();
    return Value::String(
        std::regex_replace(args[0].AsString(), *re, args[2].AsString()));
  }
  if (name == "LANGMATCHES") {
    if (args.size() != 2) return Value::Unbound();
    std::string lang = ToLowerAscii(args[0].AsString());
    std::string range = ToLowerAscii(args[1].AsString());
    if (range == "*") return Value::Bool(!lang.empty());
    return Value::Bool(lang == range ||
                       StartsWith(lang, range + "-"));
  }
  if (name == "IRI" || name == "URI") {
    if (args.size() != 1) return Value::Unbound();
    return Value::FromTerm(Term::Iri(args[0].AsString()));
  }
  if (name == "ISIRI" || name == "ISURI") {
    return Value::Bool(args[0].kind() == Value::Kind::kTerm &&
                       args[0].term().is_iri());
  }
  if (name == "ISBLANK") {
    return Value::Bool(args[0].kind() == Value::Kind::kTerm &&
                       args[0].term().is_blank());
  }
  if (name == "ISLITERAL") {
    return Value::Bool(args[0].kind() != Value::Kind::kTerm ||
                       args[0].term().is_literal());
  }
  if (name == "ISNUMERIC") {
    return Value::Bool(args[0].AsNumeric().has_value());
  }
  if (name == "CAST") {
    // Datatype IRI carried on e.term.
    const std::string& dt = e.term.lexical();
    namespace xsd = rdf::xsd;
    if (dt == xsd::kInteger || dt == xsd::kInt || dt == xsd::kLong) {
      auto n = args[0].AsNumeric();
      if (n.has_value()) return Value::Int(static_cast<int64_t>(*n));
      char* end = nullptr;
      std::string s = args[0].AsString();
      long long parsed = std::strtoll(s.c_str(), &end, 10);
      if (end != nullptr && *end == '\0' && !s.empty()) {
        return Value::Int(parsed);
      }
      return Value::Unbound();
    }
    if (dt == xsd::kDouble || dt == xsd::kDecimal || dt == xsd::kFloat) {
      auto n = args[0].AsNumeric();
      if (n.has_value()) return Value::Double(*n);
      char* end = nullptr;
      std::string s = args[0].AsString();
      double parsed = std::strtod(s.c_str(), &end);
      if (end != nullptr && *end == '\0' && !s.empty()) {
        return Value::Double(parsed);
      }
      return Value::Unbound();
    }
    if (dt == xsd::kBoolean) {
      std::string s = args[0].AsString();
      if (s == "true" || s == "1") return Value::Bool(true);
      if (s == "false" || s == "0") return Value::Bool(false);
      return Value::Unbound();
    }
    if (dt == xsd::kString) return Value::String(args[0].AsString());
    if (dt == xsd::kDateTime || dt == xsd::kDate) {
      return Value::FromTerm(Term::TypedLiteral(args[0].AsString(), dt));
    }
    return Value::Unbound();
  }
  return Value::Unbound();
}

}  // namespace

Value EvalExpr(const Expr& expr, RowView binding, const EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kVar:
      return EvalVar(expr, binding, ctx);
    case Expr::Kind::kTerm:
      return Value::FromTerm(expr.term);
    case Expr::Kind::kUnary:
      return EvalUnary(expr, binding, ctx);
    case Expr::Kind::kBinary:
      return EvalBinary(expr, binding, ctx);
    case Expr::Kind::kCall:
      return EvalCall(expr, binding, ctx);
    case Expr::Kind::kAggregate: {
      if (ctx.agg_values != nullptr) {
        auto it = ctx.agg_values->find(&expr);
        if (it != ctx.agg_values->end()) return it->second;
      }
      return Value::Unbound();
    }
    case Expr::Kind::kExists: {
      if (ctx.exists_eval == nullptr || expr.pattern == nullptr) {
        return Value::Unbound();
      }
      bool found = (*ctx.exists_eval)(*expr.pattern, binding);
      return Value::Bool(expr.negated ? !found : found);
    }
    case Expr::Kind::kIn: {
      if (expr.args.empty()) return Value::Unbound();
      Value probe = EvalExpr(*expr.args[0], binding, ctx);
      if (probe.is_unbound()) return Value::Unbound();
      for (size_t i = 1; i < expr.args.size(); ++i) {
        Value cand = EvalExpr(*expr.args[i], binding, ctx);
        auto eq = Value::Equals(probe, cand);
        if (eq.has_value() && *eq) {
          return Value::Bool(!expr.negated);
        }
      }
      return Value::Bool(expr.negated);
    }
  }
  return Value::Unbound();
}

}  // namespace rdfa::sparql
