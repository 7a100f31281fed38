// Deadline + cooperative-cancellation coverage across the query path:
// QueryContext semantics, deadline trips mid-BGP-join on a large KG,
// deterministic cancellation during the parallel group-aggregate stage
// (CancelAfterChecks fault injection), HIFUN-evaluator and OLAP roll-up
// unwinding, and the zero-deadline fast-fail.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "analytics/olap.h"
#include "common/query_context.h"
#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

TEST(QueryContextTest, DefaultContextNeverTrips) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.Check("anywhere").ok());
  EXPECT_EQ(ctx.trip_stage(), nullptr);
}

TEST(QueryContextTest, NonPositiveBudgetIsAlreadyExpired) {
  QueryContext ctx = QueryContext::WithDeadlineMs(0);
  EXPECT_TRUE(ctx.expired());
  Status st = ctx.Check("admission");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(ctx.trip_stage(), "admission");
}

TEST(QueryContextTest, CancelIsSharedAcrossCopies) {
  QueryContext ctx;
  QueryContext copy = ctx;
  ctx.Cancel();
  EXPECT_TRUE(copy.cancelled());
  Status st = copy.Check("bgp-join");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, ChildTakesTheTighterDeadlineAndSharesCancel) {
  QueryContext parent = QueryContext::WithDeadlineMs(1e9);
  QueryContext child = parent.ChildWithDeadlineMs(1e6);
  EXPECT_LT(child.remaining_ms(), 2e6);
  // A looser child budget must not loosen an already-tight parent.
  QueryContext tight = QueryContext::WithDeadlineMs(0);
  QueryContext still_tight = tight.ChildWithDeadlineMs(1e6);
  EXPECT_TRUE(still_tight.expired());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(QueryContextTest, CancelAfterChecksTripsOnTheNthCheck) {
  QueryContext ctx;
  ctx.CancelAfterChecks(3);
  EXPECT_TRUE(ctx.Check("s1").ok());
  EXPECT_TRUE(ctx.Check("s2").ok());
  Status st = ctx.Check("s3");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "s3");
  EXPECT_EQ(ctx.checks_performed(), 3);
}

/// Executes `sparql` over `g` with the given context and thread budget.
Result<sparql::ResultTable> RunQuery(rdf::Graph* g, const std::string& sparql,
                                const QueryContext& ctx, int threads,
                                sparql::ExecStats* stats) {
  auto parsed = sparql::ParseQuery(sparql);
  if (!parsed.ok()) return parsed.status();
  sparql::Executor exec(g);
  exec.set_thread_count(threads);
  exec.set_query_context(ctx);
  Result<sparql::ResultTable> table = exec.Execute(parsed.value());
  *stats = exec.stats();
  return table;
}

/// Shares one large product KG (~150k triples after closure) across the
/// deadline tests — it is expensive to generate.
class DeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new rdf::Graph();
    workload::ProductKgOptions opt;
    opt.laptops = 20000;
    opt.companies = 205;
    workload::GenerateProductKg(graph_, opt);
    rdf::MaterializeRdfsClosure(graph_);
    ASSERT_GT(graph_->size(), 100000u);

    rdf::PrefixMap prefixes;
    auto q = hifun::ParseHifun(
        "((manufacturer x YEAR(releaseDate)), price, AVG) over Laptop",
        prefixes, workload::kExampleNs);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto sparql = translator::TranslateToSparql(q.value());
    ASSERT_TRUE(sparql.ok()) << sparql.status().ToString();
    *query_ = sparql.value();
  }

  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static rdf::Graph* graph_;
  static std::string* query_;
};

rdf::Graph* DeadlineTest::graph_ = nullptr;
std::string* DeadlineTest::query_ = new std::string();

TEST_F(DeadlineTest, OneMsDeadlineTripsWithPartialStats) {
  // Baseline: unrestricted run answers in full.
  sparql::ExecStats full_stats;
  auto full = RunQuery(graph_, *query_, QueryContext(), 1, &full_stats);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full.value().num_rows(), 0u);
  EXPECT_FALSE(full_stats.aborted);

  // A 1 ms budget cannot evaluate a 150k-triple grouping query: it must
  // unwind with the typed status, not return a full (or truncated) table.
  sparql::ExecStats stats;
  QueryContext ctx = QueryContext::WithDeadlineMs(1);
  auto clipped = RunQuery(graph_, *query_, ctx, 1, &stats);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kDeadlineExceeded)
      << clipped.status().ToString();
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.abort_stage.empty());
  EXPECT_NE(stats.Summary().find("aborted@"), std::string::npos);
}

TEST_F(DeadlineTest, NoDeadlineRunIsByteIdenticalToContextFreeRun) {
  sparql::ExecStats stats;
  auto with_ctx =
      RunQuery(graph_, *query_, QueryContext::WithDeadlineMs(1e9), 4, &stats);
  ASSERT_TRUE(with_ctx.ok()) << with_ctx.status().ToString();

  auto parsed = sparql::ParseQuery(*query_);
  ASSERT_TRUE(parsed.ok());
  sparql::Executor bare(graph_);
  bare.set_thread_count(4);
  auto without_ctx = bare.Execute(parsed.value());
  ASSERT_TRUE(without_ctx.ok());
  EXPECT_EQ(with_ctx.value().ToTsv(), without_ctx.value().ToTsv());
}

TEST_F(DeadlineTest, ZeroDeadlineFastFailsAtAdmission) {
  sparql::ExecStats stats;
  auto r = RunQuery(graph_, *query_, QueryContext::WithDeadlineMs(0), 1, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.abort_stage, "admission");
  // Fast-fail means no join work was done at all.
  EXPECT_EQ(stats.bgp_patterns, 0u);
}

TEST_F(DeadlineTest, PreCancelledContextFailsFast) {
  QueryContext ctx;
  ctx.Cancel();
  sparql::ExecStats stats;
  auto r = RunQuery(graph_, *query_, ctx, 1, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.abort_stage, "admission");
}

TEST_F(DeadlineTest, CancelDuringParallelGroupAggregate) {
  // Phase 1: count the deterministic stage-boundary checks of a clean run.
  QueryContext probe;
  sparql::ExecStats stats;
  auto full = RunQuery(graph_, *query_, probe, 4, &stats);
  ASSERT_TRUE(full.ok());
  int64_t checks = probe.checks_performed();
  ASSERT_GT(checks, 4);

  // Phase 2: rerun, tripping on the final counted check — which lands in
  // the group-aggregate stage for a grouping query.
  QueryContext ctx;
  ctx.CancelAfterChecks(checks);
  auto clipped = RunQuery(graph_, *query_, ctx, 4, &stats);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kCancelled)
      << clipped.status().ToString();
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.abort_stage, "group-aggregate");
}

TEST(HifunDeadlineTest, EvaluatorUnwindsOnExpiredAndCancelled) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::PrefixMap prefixes;
  auto q = hifun::ParseHifun("(manufacturer, price, AVG) over Laptop",
                             prefixes, workload::kExampleNs);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  hifun::Evaluator eval(g);

  auto ok = eval.Evaluate(q.value());
  ASSERT_TRUE(ok.ok());
  ASSERT_GT(ok.value().num_rows(), 0u);

  auto expired = eval.Evaluate(q.value(), QueryContext::WithDeadlineMs(0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // Deterministic mid-evaluation cancellation via check-count replay.
  QueryContext probe;
  ASSERT_TRUE(eval.Evaluate(q.value(), probe).ok());
  ASSERT_GT(probe.checks_performed(), 1);
  QueryContext ctx;
  ctx.CancelAfterChecks(probe.checks_performed());
  auto cancelled = eval.Evaluate(q.value(), ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

// A roll-up re-issues the coarser cube through the session, so the view's
// context governs it: an expired or cancelled context unwinds the rolled-up
// Materialize, as does a cancel on the last check of a parallel run.
TEST(RollUpDeadlineTest, RollUpHonorsTheContext) {
  const std::string inv = workload::kInvoiceNs;
  rdf::Graph g;
  workload::InvoicesOptions opt;
  opt.invoices = 600;
  workload::GenerateInvoices(&g, opt);
  analytics::AnalyticsSession session(&g);
  ASSERT_TRUE(session.fs().ClickClass(inv + "Invoice").ok());
  analytics::Dimension product{
      "product",
      {{"product", {inv + "delivers"}, ""},
       {"brand", {inv + "delivers", inv + "brand"}, ""}}};
  analytics::MeasureSpec measure;
  measure.path = {inv + "inQuantity"};
  measure.ops = {hifun::AggOp::kSum, hifun::AggOp::kAvg};
  analytics::OlapView view(&session, {product}, measure);
  view.set_thread_count(4);
  ASSERT_TRUE(view.RollUp("product").ok());

  QueryContext probe;
  view.set_query_context(probe);
  auto ok = view.Materialize();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok.value().table().num_rows(), 1u);
  ASSERT_GT(probe.checks_performed(), 1);

  view.set_query_context(QueryContext::WithDeadlineMs(0));
  auto expired = view.Materialize();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  QueryContext cancelled;
  cancelled.Cancel();
  view.set_query_context(cancelled);
  auto early = view.Materialize();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kCancelled);

  QueryContext late;
  late.CancelAfterChecks(probe.checks_performed());
  view.set_query_context(late);
  auto clipped = view.Materialize();
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace rdfa
