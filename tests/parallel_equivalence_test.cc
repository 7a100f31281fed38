// Parallel execution is a pure performance knob: for every query the
// morsel-parallel path must produce results byte-identical to the serial
// path (DESIGN.md, threading model). This suite locks that contract in
// across the SPARQL executor, the HIFUN evaluator, OLAP materialization
// and the roll-up cache. The corpora are sized so the parallel paths
// actually trigger (>= 128 seed rows / items).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analytics/olap.h"
#include "analytics/rollup_cache.h"
#include "analytics/session.h"
#include "hifun/evaluator.h"
#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

const std::string kEx = workload::kExampleNs;
const std::string kInv = workload::kInvoiceNs;

class SparqlParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ProductKgOptions opt;
    opt.laptops = 600;
    workload::GenerateProductKg(&g_, opt);
  }

  std::string RunTsv(const std::string& q, int threads) {
    auto parsed = sparql::ParseQuery(q);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
    if (!parsed.ok()) return "";
    sparql::Executor exec(&g_);
    exec.set_thread_count(threads);
    auto res = exec.Execute(parsed.value());
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    last_stats_ = exec.stats();
    return res.ok() ? res.value().ToTsv() : std::string();
  }

  void ExpectEquivalent(const std::string& q) {
    std::string serial = RunTsv(q, 1);
    std::string parallel = RunTsv(q, 4);
    EXPECT_EQ(serial, parallel) << "parallel result diverges for: " << q;
  }

  rdf::Graph g_;
  sparql::ExecStats last_stats_;
};

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

TEST_F(SparqlParallelEquivalenceTest, BgpJoinCorpus) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?p WHERE { ?x ex:manufacturer ?m . "
                   "?x ex:price ?p . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?c WHERE { ?x ex:manufacturer ?m . "
                   "?m ex:origin ?c . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 900) }");
}

TEST_F(SparqlParallelEquivalenceTest, AggregatesDistinctOrderBy) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (SUM(?p) AS ?s) (COUNT(?x) AS ?n) "
                   "WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p . } "
                   "GROUP BY ?m");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (AVG(?p) AS ?a) (MIN(?p) AS ?lo) "
                   "(MAX(?p) AS ?hi) "
                   "WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p . } "
                   "GROUP BY ?m");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT DISTINCT ?m WHERE { ?x ex:manufacturer ?m . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?p WHERE { ?x ex:price ?p . } ORDER BY ?p ?x");
}

TEST_F(SparqlParallelEquivalenceTest, HavingAndExpressionProjection) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (COUNT(?x) AS ?n) "
                   "WHERE { ?x ex:manufacturer ?m . } "
                   "GROUP BY ?m HAVING (COUNT(?x) > 10)");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x (SUBSTR(STR(?x), 30) AS ?tail) "
                   "WHERE { ?x ex:price ?p . FILTER(REGEX(STR(?x), "
                   "\"laptop[0-9]*[02468]$\")) }");
}

TEST_F(SparqlParallelEquivalenceTest, StatsReportParallelExecution) {
  std::string q = std::string(kPfx) +
                  "SELECT ?x ?p WHERE { ?x ex:manufacturer ?m . "
                  "?x ex:price ?p . }";
  (void)RunTsv(q, 4);
  EXPECT_EQ(last_stats_.threads, 4);
  EXPECT_EQ(last_stats_.bgp_patterns, 2u);
  ASSERT_EQ(last_stats_.rows_scanned.size(), 2u);
  EXPECT_GT(last_stats_.rows_scanned[0], 0u);
  EXPECT_GT(last_stats_.morsel_count, 0u);
  EXPECT_EQ(last_stats_.join_order.size(), 2u);
  EXPECT_GE(last_stats_.total_ms, 0.0);
}

// FILTERs run inside the join, right after the step that binds their last
// variable, must not change a single byte. Each query runs with
// push_filters on and off at 1 and 4 threads, under two join legs: NLJ in
// source order (so "first", "middle" and "last" below are the execution
// order) and DP+merge. Within a leg every run must equal the leg's serial
// run without pushed filters byte for byte (row order included); the two
// legs join in different orders, so across legs the sorted rows match.
class FilterInJoinEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ProductKgOptions opt;
    opt.laptops = 600;
    opt.missing_price_rate = 0.2;  // OPTIONAL { ?l ex:price ?p } may miss
    workload::GenerateProductKg(&g_, opt);
  }

  std::string Run(const std::string& q, bool dp_merge, bool push_filters,
                  int threads) {
    auto parsed = sparql::ParseQuery(std::string(kPfx) + q);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
    if (!parsed.ok()) return "";
    sparql::Executor exec(&g_, /*reorder_joins=*/dp_merge, push_filters,
                          threads);
    if (dp_merge) {
      exec.set_use_dp(true);
      exec.set_join_strategy(sparql::JoinStrategy::kMerge);
    } else {
      exec.set_join_strategy(sparql::JoinStrategy::kNestedLoop);
    }
    auto res = exec.Execute(parsed.value());
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    return res.ok() ? res.value().ToTsv() : std::string();
  }

  static std::vector<std::string> SortedLines(const std::string& tsv) {
    std::vector<std::string> lines;
    size_t start = 0;
    for (size_t nl = tsv.find('\n'); nl != std::string::npos;
         nl = tsv.find('\n', start)) {
      lines.push_back(tsv.substr(start, nl - start));
      start = nl + 1;
    }
    lines.push_back(tsv.substr(start));
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  // Returns the reference result so callers can assert on its size.
  // `order_free` is false for a query whose answer depends on row order
  // (SAMPLE), which the two legs' join orders may legitimately differ on.
  std::string ExpectIdentical(const std::string& q, bool order_free = true) {
    std::string legs[2];
    for (bool dp_merge : {false, true}) {
      const std::string ref = Run(q, dp_merge, /*push_filters=*/false, 1);
      for (bool push : {false, true}) {
        for (int threads : {1, 4}) {
          EXPECT_EQ(ref, Run(q, dp_merge, push, threads))
              << (dp_merge ? "dp+merge" : "nlj") << " push=" << push
              << " threads=" << threads << "\nquery: " << q;
        }
      }
      legs[dp_merge] = ref;
    }
    if (order_free) {
      EXPECT_EQ(SortedLines(legs[0]), SortedLines(legs[1])) << q;
    }
    return legs[0];
  }

  static size_t Rows(const std::string& tsv) {
    return static_cast<size_t>(std::count(tsv.begin(), tsv.end(), '\n'));
  }

  rdf::Graph g_;
};

TEST_F(FilterInJoinEquivalenceTest, FilterAfterFirstMiddleAndLastPattern) {
  const std::string join =
      "?l ex:price ?p . ?l ex:manufacturer ?m . ?m ex:origin ?c . "
      "?c ex:locatedAt ?k . ?l ex:releaseDate ?d . ";
  // ?p: first pattern; ?c: middle; ?d: last.
  for (const char* filter :
       {"FILTER(?p >= 1500)", "FILTER(?c != ex:country1)",
        "FILTER(YEAR(?d) >= 2021)",
        "FILTER(?p >= 1500) FILTER(?c != ex:country1) "
        "FILTER(YEAR(?d) >= 2021)",
        "FILTER(?p + YEAR(?d) > 3800)"}) {
    const std::string tsv = ExpectIdentical(
        "SELECT ?l ?m ?c ?d WHERE { " + join + filter + " }");
    EXPECT_GT(Rows(tsv), 50u) << filter;
  }
  ExpectIdentical("SELECT ?m (AVG(?p) AS ?a) (COUNT(*) AS ?n) WHERE { " +
                  join + "FILTER(YEAR(?d) >= 2020) FILTER(?p <= 2500) } "
                  "GROUP BY ?m");
  // Fan-out after the filtered step (one company, many laptops): rows
  // dropped early and rows dropped at the end leave the survivors in the
  // same order only if the drop keeps the order.
  const std::string fan_out =
      "?c ex:locatedAt ?k . ?m ex:origin ?c . "
      "?l ex:manufacturer ?m . ?l ex:price ?p . ";
  for (const char* filter :
       {"FILTER(?c != ex:country1)", "FILTER(?m != ex:company2)",
        "FILTER(?c != ex:country1 && ?p > 700)"}) {
    const std::string tsv = ExpectIdentical(
        "SELECT ?l ?m ?c ?p WHERE { " + fan_out + filter + " }");
    EXPECT_GT(Rows(tsv), 128u) << filter;
  }
  // SAMPLE and the group representative are each group's first row.
  ExpectIdentical("SELECT ?c (SAMPLE(?l) AS ?first) (COUNT(*) AS ?n) "
                  "WHERE { " + fan_out + "FILTER(?m != ex:company2) } "
                  "GROUP BY ?c",
                  /*order_free=*/false);
}

TEST_F(FilterInJoinEquivalenceTest, TwoFiltersReadyAtTheSameStep) {
  const std::string tsv = ExpectIdentical(
      "SELECT ?l ?p ?u WHERE { ?l ex:price ?p . ?l ex:USBPorts ?u . "
      "?l ex:manufacturer ?m . FILTER(?p < 2500) "
      "FILTER(CONTAINS(STR(?l), \"1\")) FILTER(?u >= 2) }");
  EXPECT_GT(Rows(tsv), 50u);
}

TEST_F(FilterInJoinEquivalenceTest, FilterOverOptionalVariableWaitsForEnd) {
  // The outer filter reads ?p, which the OPTIONAL may leave unbound: it
  // must run after the OPTIONAL, not inside the OPTIONAL's own join (there
  // it would turn dropped rows into rows with ?p unbound).
  const std::string tsv = ExpectIdentical(
      "SELECT ?l ?m ?p WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
      "OPTIONAL { ?l ex:price ?p . ?l ex:USBPorts ?u . FILTER(?u > 2) } "
      "FILTER(!BOUND(?p) || ?p < 2000) }");
  EXPECT_GT(Rows(tsv), 128u);
  ExpectIdentical(
      "SELECT ?l ?p WHERE { ?l ex:manufacturer ?m . "
      "OPTIONAL { ?l ex:price ?p } FILTER(?p > 1000) }");
}

TEST_F(FilterInJoinEquivalenceTest, ExistsFiltersWaitForEnd) {
  ExpectIdentical(
      "SELECT ?l ?p WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
      "FILTER EXISTS { ?m ex:origin ex:country1 } FILTER(?p > 500) }");
  ExpectIdentical(
      "SELECT ?l ?m WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
      "FILTER NOT EXISTS { ?l ex:USBPorts ?u . FILTER(?u > 3) } }");
}

TEST_F(FilterInJoinEquivalenceTest, TypeErrorsDropRows) {
  // ?l is an IRI: `?l > 3` is a type error, so false, on every row.
  EXPECT_EQ(Rows(ExpectIdentical(
                "SELECT ?l WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
                "FILTER(?l > 3) }")),
            1u);  // the header only
  // error || true keeps the row; error || false drops it.
  EXPECT_GT(Rows(ExpectIdentical(
                "SELECT ?l ?p WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p "
                ". FILTER(?m > 3 || ?p > 1500) }")),
            128u);
}

TEST_F(FilterInJoinEquivalenceTest, StepWhoseFilterDropsEveryRow) {
  EXPECT_EQ(Rows(ExpectIdentical(
                "SELECT ?l ?c WHERE { ?l ex:price ?p . ?l ex:manufacturer ?m "
                ". ?m ex:origin ?c . FILTER(?p < 0) }")),
            1u);
  ExpectIdentical(
      "SELECT (COUNT(*) AS ?n) (SUM(?p) AS ?s) WHERE { ?l ex:price ?p . "
      "?l ex:manufacturer ?m . ?m ex:origin ?c . FILTER(?c = ex:nowhere) }");
}

TEST_F(SparqlParallelEquivalenceTest, HifunEvaluatorMatchesSerial) {
  hifun::Query q;
  q.root_class = kEx + "Laptop";
  q.grouping = hifun::AttrExpr::Property(kEx + "manufacturer");
  q.measuring = hifun::AttrExpr::Property(kEx + "price");
  q.ops = {hifun::AggOp::kSum, hifun::AggOp::kCount, hifun::AggOp::kAvg};
  auto serial = hifun::Evaluator(g_, 1).Evaluate(q);
  auto parallel = hifun::Evaluator(g_, 4).Evaluate(q);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial.value().ToTsv(), parallel.value().ToTsv());
}

TEST_F(SparqlParallelEquivalenceTest, HifunRestrictionErrorsMatchSerial) {
  // Error propagation must also be deterministic: the parallel evaluator
  // reports the same (earliest) error the serial scan would hit.
  hifun::Query q;
  q.root_class = kEx + "Laptop";
  q.grouping = hifun::AttrExpr::Property(kEx + "manufacturer");
  q.measuring = hifun::AttrExpr::Property(kEx + "noSuchProperty");
  q.ops = {hifun::AggOp::kSum};
  auto serial = hifun::Evaluator(g_, 1).Evaluate(q);
  auto parallel = hifun::Evaluator(g_, 4).Evaluate(q);
  EXPECT_EQ(serial.ok(), parallel.ok());
  if (!serial.ok() && !parallel.ok()) {
    EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
  }
}

TEST(OlapParallelEquivalenceTest, MaterializedCubeMatchesSerial) {
  rdf::Graph g;
  workload::InvoicesOptions opt;
  opt.invoices = 3000;
  opt.branches = 10;
  opt.products = 50;
  opt.brands = 8;
  workload::GenerateInvoices(&g, opt);

  auto build_cube = [&](analytics::AnalyticsSession* session) {
    analytics::Dimension time;
    time.name = "time";
    time.levels = {
        {"date", {kInv + "hasDate"}, ""},
        {"month", {kInv + "hasDate"}, "MONTH"},
    };
    analytics::Dimension product;
    product.name = "product";
    product.levels = {
        {"product", {kInv + "delivers"}, ""},
        {"brand", {kInv + "delivers", kInv + "brand"}, ""},
    };
    analytics::MeasureSpec measure;
    measure.path = {kInv + "inQuantity"};
    measure.ops = {hifun::AggOp::kSum};
    return analytics::OlapView(session, {time, product}, measure);
  };

  analytics::AnalyticsSession serial_s(&g);
  analytics::AnalyticsSession parallel_s(&g);
  ASSERT_TRUE(serial_s.fs().ClickClass(kInv + "Invoice").ok());
  ASSERT_TRUE(parallel_s.fs().ClickClass(kInv + "Invoice").ok());
  analytics::OlapView serial_cube = build_cube(&serial_s);
  analytics::OlapView parallel_cube = build_cube(&parallel_s);
  parallel_cube.set_thread_count(4);

  for (int step = 0; step < 3; ++step) {
    auto a = serial_cube.Materialize();
    auto b = parallel_cube.Materialize();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().table().ToTsv(), b.value().table().ToTsv())
        << "cube diverges at step " << step;
    (void)serial_cube.RollUp("time");
    (void)parallel_cube.RollUp("time");
  }
  EXPECT_EQ(parallel_cube.last_exec_stats().threads, 4);
}

TEST(RollupParallelEquivalenceTest, PartialTableMergeMatchesSerial) {
  // Integer-valued measures merge exactly, so the parallel roll-up must be
  // byte-identical to the serial left fold.
  sparql::ResultTable table({"brand", "product", "qty"});
  for (int r = 0; r < 500; ++r) {
    table.AddRow({rdf::Term::Iri(kInv + "brand" + std::to_string(r % 7)),
                  rdf::Term::Iri(kInv + "prod" + std::to_string(r % 40)),
                  rdf::Term::Integer((r * 13) % 97)});
  }
  analytics::AnswerFrame answer(std::move(table));
  for (hifun::AggOp op : {hifun::AggOp::kSum, hifun::AggOp::kMin,
                          hifun::AggOp::kMax, hifun::AggOp::kCount}) {
    auto serial = analytics::RollUpAnswer(answer, {"brand"}, "qty", op, 1);
    auto parallel = analytics::RollUpAnswer(answer, {"brand"}, "qty", op, 4);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial.value().table().ToTsv(), parallel.value().table().ToTsv())
        << "op " << static_cast<int>(op);
  }
}

TEST(RollupParallelEquivalenceTest, AverageRollupMatchesSerial) {
  sparql::ResultTable table({"brand", "product", "sum", "count"});
  for (int r = 0; r < 400; ++r) {
    table.AddRow({rdf::Term::Iri(kInv + "brand" + std::to_string(r % 5)),
                  rdf::Term::Iri(kInv + "prod" + std::to_string(r % 20)),
                  rdf::Term::Integer((r * 7) % 53),
                  rdf::Term::Integer(1 + r % 3)});
  }
  analytics::AnswerFrame answer(std::move(table));
  auto serial =
      analytics::RollUpAverage(answer, {"brand"}, "sum", "count", 1);
  auto parallel =
      analytics::RollUpAverage(answer, {"brand"}, "sum", "count", 4);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial.value().table().ToTsv(), parallel.value().table().ToTsv());
}

}  // namespace
}  // namespace rdfa
