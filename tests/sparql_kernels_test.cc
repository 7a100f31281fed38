// Differential suite for the executor's ID-native kernels: numeric FILTER
// comparisons, the GroupAggregator's canonical keys and its streaming
// COUNT/SUM/AVG/MIN/MAX. Each kernel-eligible query is compared with a
// same-meaning rewrite the kernels do not recognise, which therefore runs
// the generic expression evaluator: `FILTER(c)` vs `FILTER((c) && true)`,
// `AGG(?v)` vs `AGG(COALESCE(?v))`, `GROUP BY ?g` vs
// `GROUP BY (COALESCE(?g))`. Every case runs at 1 and 4 threads; the data
// has enough rows for the morsel-parallel paths to trigger.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"

namespace rdfa {
namespace {

using rdf::Term;

constexpr char kNs[] = "http://example.org/k#";
constexpr char kPfx[] = "PREFIX ex: <http://example.org/k#>\n";

Term Ex(const std::string& local) { return Term::Iri(kNs + local); }
Term Typed(const std::string& lexical, const char* datatype) {
  return Term::TypedLiteral(lexical, datatype);
}

// One column per kind of input the kernels must treat like the generic
// evaluator:
//   ex:p  integer/decimal/double/non-numeric literals mixed, NaN, plain
//         numeric-looking literals, "1e3"^^xsd:integer (strtoll rejects
//         it, strtod accepts it), and value ties (5, 5.0, 5e0);
//   ex:q  numeric only, with ties and a rare NaN;
//   ex:i  integers only, so SUM keeps its integer result;
//   ex:t  few distinct values, each spelled several ways (1, 01, 1.0,
//         5, 5.0, 5e0), so MIN and MAX meet ties at the extremes;
//   ex:g  group keys, "01" and "1" as distinct integer literals, IRIs,
//         a plain literal, and subjects without a key;
//   ex:h  a second key for two-key groups.
// Some subjects lack each value, so OPTIONAL leaves it unbound.
rdf::Graph BuildMixedGraph() {
  namespace xsd = rdf::xsd;
  const std::vector<Term> p_values = {
      Typed("3", xsd::kInteger),    Typed("03", xsd::kInteger),
      Typed("2.5", xsd::kDecimal),  Typed("2.50", xsd::kDecimal),
      Typed("7e0", xsd::kDouble),   Typed("NaN", xsd::kDouble),
      Term::Literal("abc"),         Term::Literal("7"),
      Typed("-4", xsd::kInteger),   Typed("1e3", xsd::kInteger),
      Typed("5", xsd::kInteger),    Typed("5.0", xsd::kDecimal),
      Typed("5e0", xsd::kDouble),   Typed("bad", xsd::kInteger),
      Term::Boolean(true),          Ex("iri-value"),
  };
  const std::vector<Term> q_values = {
      Typed("1", xsd::kInteger),   Typed("5", xsd::kInteger),
      Typed("5.0", xsd::kDecimal), Typed("5e0", xsd::kDouble),
      Typed("0.1", xsd::kDouble),  Typed("0.2", xsd::kDouble),
      Typed("-2.25", xsd::kDecimal), Typed("12", xsd::kInteger),
  };
  const std::vector<Term> t_values = {
      Typed("1", xsd::kInteger), Typed("01", xsd::kInteger),
      Typed("1.0", xsd::kDecimal), Typed("5", xsd::kInteger),
      Typed("5.0", xsd::kDecimal), Typed("5e0", xsd::kDouble),
  };
  const std::vector<Term> keys = {
      Typed("01", xsd::kInteger), Typed("1", xsd::kInteger),
      Typed("2", xsd::kInteger),  Ex("A"),
      Ex("B"),                    Term::Literal("a"),
  };
  rdf::Graph g;
  uint64_t state = 12345;
  auto next = [&](uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  for (int i = 0; i < 480; ++i) {
    const Term s = Ex("s" + std::to_string(i));
    g.Add(s, Ex("type"), Ex("Item"));
    if (next(8) != 0) g.Add(s, Ex("g"), keys[next(keys.size())]);
    if (next(3) != 0) g.Add(s, Ex("h"), Term::Integer(next(3)));
    if (next(6) != 0) g.Add(s, Ex("p"), p_values[next(p_values.size())]);
    if (next(5) != 0) {
      g.Add(s, Ex("q"), next(97) == 0 ? Typed("NaN", xsd::kDouble)
                                      : q_values[next(q_values.size())]);
    }
    if (next(4) != 0) {
      g.Add(s, Ex("i"), Term::Integer(static_cast<int64_t>(next(50)) - 10));
    }
    if (next(4) != 0) g.Add(s, Ex("t"), t_values[next(t_values.size())]);
  }
  return g;
}

std::string Replace(std::string s, const std::string& from,
                    const std::string& to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

class SparqlKernelsTest : public ::testing::Test {
 protected:
  SparqlKernelsTest() : g_(BuildMixedGraph()) {}

  std::string Run(const std::string& query, int threads) {
    auto parsed = sparql::ParseQuery(kPfx + query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << query;
    if (!parsed.ok()) return "<parse error>";
    sparql::Executor exec(&g_, /*reorder_joins=*/true, /*push_filters=*/true,
                          threads);
    auto table = exec.Execute(parsed.value());
    EXPECT_TRUE(table.ok()) << table.status().ToString() << "\n" << query;
    if (!table.ok()) return "<exec error>";
    return sparql::WriteResultsJson(table.value());
  }

  // `kernel` and `generic` must mean the same query; the results must match
  // byte for byte at 1 and 4 threads, and across thread counts.
  void ExpectSame(const std::string& kernel, const std::string& generic) {
    const std::string serial = Run(kernel, 1);
    EXPECT_EQ(serial, Run(generic, 1)) << kernel << "\nvs\n" << generic;
    EXPECT_EQ(Run(kernel, 4), Run(generic, 4)) << kernel << "\nvs\n" << generic;
    EXPECT_EQ(serial, Run(kernel, 4)) << "threads diverge: " << kernel;
  }

  // `tmpl` with aggregate arguments written `{?v}`: the kernel form passes
  // the variable, the generic form wraps it in COALESCE.
  void ExpectSameAggregates(const std::string& tmpl) {
    ExpectSame(Replace(tmpl, "{?v}", "?v"),
               Replace(tmpl, "{?v}", "COALESCE(?v)"));
  }

  rdf::Graph g_;
};

TEST_F(SparqlKernelsTest, NumericFilterComparisonsMatchGenericEvaluation) {
  for (const char* col : {"p", "q", "i", "t"}) {
    for (const char* op : {"<", "<=", ">", ">=", "=", "!="}) {
      for (const char* c :
           {"5", "2.5", "-1",
            "\"3e0\"^^<http://www.w3.org/2001/XMLSchema#double>",
            "\"NaN\"^^<http://www.w3.org/2001/XMLSchema#double>"}) {
        const std::string cmp = std::string("?v ") + op + " " + c;
        const std::string where =
            std::string("?s ex:") + col + " ?v . FILTER(";
        ExpectSame("SELECT ?s ?v WHERE { " + where + cmp + ") }",
                   "SELECT ?s ?v WHERE { " + where + "(" + cmp +
                       ") && true) }");
      }
    }
  }
}

TEST_F(SparqlKernelsTest, NumericFilterOverUnboundValuesMatchesGeneric) {
  // The filter runs at the end of the group, over rows whose ?v the
  // OPTIONAL left unbound; non-numeric constants never compile.
  for (const char* cmp : {"?v >= 3", "?v != 5", "?v < \"abc\"", "?v = ex:A"}) {
    const std::string head =
        "SELECT ?s ?v WHERE { ?s ex:type ex:Item . OPTIONAL { ?s ex:p ?v } "
        "FILTER(";
    ExpectSame(head + cmp + ") }",
               head + "(" + cmp + ") && true) }");
  }
}

TEST_F(SparqlKernelsTest, StreamingAggregatesMatchGenericPerGroup) {
  for (const char* col : {"p", "q", "i", "t"}) {
    const std::string aggs =
        "(COUNT({?v}) AS ?c) (SUM({?v}) AS ?sum) (AVG({?v}) AS ?avg) "
        "(MIN({?v}) AS ?min) (MAX({?v}) AS ?max) (COUNT(*) AS ?n) ";
    const std::string value = std::string("?s ex:") + col + " ?v";
    // Every subject, value possibly unbound.
    ExpectSameAggregates("SELECT ?g " + aggs +
                         "WHERE { ?s ex:g ?g . OPTIONAL { " + value +
                         " } } GROUP BY ?g");
    // Unbound group keys.
    ExpectSameAggregates("SELECT ?g " + aggs + "WHERE { " + value +
                         " . OPTIONAL { ?s ex:g ?g } } GROUP BY ?g");
    // Two keys, HAVING on a streamed aggregate, ORDER BY another.
    ExpectSameAggregates("SELECT ?g ?h " + aggs + "WHERE { " + value +
                         " . OPTIONAL { ?s ex:g ?g } OPTIONAL { ?s ex:h ?h } } "
                         "GROUP BY ?g ?h HAVING (COUNT({?v}) > 3) "
                         "ORDER BY DESC(SUM({?v})) ?g ?h");
    // No GROUP BY: one group over every row.
    ExpectSameAggregates("SELECT " + aggs + "WHERE { " + value + " }");
    // Streamed and generic aggregates side by side.
    ExpectSameAggregates("SELECT ?g (SUM({?v}) AS ?sum) "
                         "(COUNT(DISTINCT ?v) AS ?d) (SAMPLE(?v) AS ?one) "
                         "(GROUP_CONCAT(?v) AS ?all) (MAX({?v} + 0) AS ?m) "
                         "WHERE { ?s ex:g ?g . " + value + " } GROUP BY ?g");
  }
}

TEST_F(SparqlKernelsTest, CanonicalGroupKeysMatchComputedKeys) {
  for (const char* col : {"p", "q"}) {
    const std::string tail =
        std::string("(SUM(?v) AS ?sum) (MIN(?v) AS ?min) (COUNT(*) AS ?n) "
                    "WHERE { ?s ex:type ex:Item . OPTIONAL { ?s ex:") +
        col + " ?v } OPTIONAL { ?s ex:g ?g } OPTIONAL { ?s ex:h ?h } } ";
    ExpectSame("SELECT ?g " + tail + "GROUP BY ?g",
               "SELECT ?g " + tail + "GROUP BY (COALESCE(?g))");
    ExpectSame("SELECT ?g ?h " + tail + "GROUP BY ?g ?h",
               "SELECT ?g ?h " + tail + "GROUP BY (COALESCE(?g)) ?h");
    // A mixed literal column as the key: "3" and "03", "2.5" and "2.50",
    // "5.0"^^decimal and "5e0"^^double fold by canonical value.
    ExpectSame("SELECT ?v " + tail + "GROUP BY ?v",
               "SELECT ?v " + tail + "GROUP BY (COALESCE(?v))");
  }
}

TEST_F(SparqlKernelsTest, EmptyInputYieldsOneGroupWithoutGroupBy) {
  const std::string aggs =
      "(COUNT({?v}) AS ?c) (SUM({?v}) AS ?sum) (AVG({?v}) AS ?avg) "
      "(MIN({?v}) AS ?min) (MAX({?v}) AS ?max) (COUNT(*) AS ?n) ";
  ExpectSameAggregates("SELECT " + aggs + "WHERE { ?s ex:missing ?v }");
  ExpectSameAggregates("SELECT ?g " + aggs +
                       "WHERE { ?s ex:missing ?v } GROUP BY ?g");
  const std::string one = Run(
      "SELECT (COUNT(?v) AS ?c) (SUM(?v) AS ?sum) WHERE { ?s ex:missing ?v }",
      1);
  EXPECT_NE(one.find("\"0\""), std::string::npos) << one;
}

TEST(SparqlKernelsKeyTest, IntegerLexicalVariantsShareOneGroup) {
  namespace xsd = rdf::xsd;
  rdf::Graph g;
  // "2" is interned, and so met, first: the output order must still be
  // the sorted key order.
  g.Add(Ex("s3"), Ex("g"), Typed("2", xsd::kInteger));
  g.Add(Ex("s1"), Ex("g"), Typed("01", xsd::kInteger));
  g.Add(Ex("s2"), Ex("g"), Typed("1", xsd::kInteger));
  auto parsed = sparql::ParseQuery(
      std::string(kPfx) +
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:g ?g } GROUP BY ?g");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (int threads : {1, 4}) {
    sparql::Executor exec(&g, true, true, threads);
    auto table = exec.Execute(parsed.value());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    // Groups sort by canonical key: 1 ("01" and "1" together), then 2.
    ASSERT_EQ(table.value().num_rows(), 2u);
    EXPECT_EQ(table.value().at(0, 0), Term::Integer(2));
    EXPECT_EQ(table.value().at(1, 0), Term::Integer(1));
  }
}

}  // namespace
}  // namespace rdfa
