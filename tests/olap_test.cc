#include "analytics/olap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "sparql/value.h"
#include "viz/table_render.h"
#include "workload/invoices.h"

namespace rdfa::analytics {
namespace {

const std::string kInv = workload::kInvoiceNs;

class OlapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BuildInvoicesExample(&g_);
    session_ = std::make_unique<AnalyticsSession>(&g_);
    ASSERT_TRUE(session_->fs().ClickClass(kInv + "Invoice").ok());

    // Time dimension: day (hasDate) -> month -> year.
    Dimension time;
    time.name = "time";
    time.levels = {
        {"date", {kInv + "hasDate"}, ""},
        {"month", {kInv + "hasDate"}, "MONTH"},
        {"year", {kInv + "hasDate"}, "YEAR"},
    };
    // Product dimension: product -> brand (path extension).
    Dimension product;
    product.name = "product";
    product.levels = {
        {"product", {kInv + "delivers"}, ""},
        {"brand", {kInv + "delivers", kInv + "brand"}, ""},
    };
    MeasureSpec measure;
    measure.path = {kInv + "inQuantity"};
    measure.ops = {hifun::AggOp::kSum};
    view_ = std::make_unique<OlapView>(
        session_.get(), std::vector<Dimension>{time, product}, measure);
  }

  std::map<std::string, double> Rows(const sparql::ResultTable& t,
                                     size_t label_col, size_t value_col) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out[viz::DisplayTerm(t.at(r, label_col))] =
          *sparql::Value::FromTerm(t.at(r, value_col)).AsNumeric();
    }
    return out;
  }

  rdf::Graph g_;
  std::unique_ptr<AnalyticsSession> session_;
  std::unique_ptr<OlapView> view_;
};

TEST_F(OlapTest, FinestLevelCube) {
  auto af = view_->Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // 7 invoices with distinct dates x products: 7 cells.
  EXPECT_EQ(af.value().table().num_rows(), 7u);
}

TEST_F(OlapTest, RollUpTimeToMonth) {
  ASSERT_TRUE(view_->RollUp("time").ok());
  EXPECT_EQ(view_->LevelOf("time"), 1);
  auto af = view_->Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // Months 1..3 x products p1/p2, but only combinations with data:
  // Jan: p1 (d1 200 + d3 200), p2 (d2 100); Feb: p2 (d4+d6 800), p1 (d5 100);
  // Mar: p1 (d7 100) -> 5 cells.
  EXPECT_EQ(af.value().table().num_rows(), 5u);
}

TEST_F(OlapTest, RollUpBeyondTopIsError) {
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("time").ok());
  EXPECT_FALSE(view_->RollUp("time").ok());
}

TEST_F(OlapTest, DrillDownReversesRollUp) {
  // Fig 7.2: roll-up then drill-down returns to the finer cube.
  ASSERT_TRUE(view_->RollUp("time").ok());
  auto coarse = view_->Materialize();
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(view_->DrillDown("time").ok());
  auto fine = view_->Materialize();
  ASSERT_TRUE(fine.ok());
  EXPECT_GT(fine.value().table().num_rows(),
            coarse.value().table().num_rows());
  EXPECT_FALSE(view_->DrillDown("time").ok());  // already finest
}

TEST_F(OlapTest, RollUpProductToBrand) {
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("time").ok());  // year
  ASSERT_TRUE(view_->RollUp("product").ok());
  auto af = view_->Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // One year (2021) x two brands.
  ASSERT_EQ(af.value().table().num_rows(), 2u);
  auto rows = Rows(af.value().table(), 1, 2);
  EXPECT_EQ(rows["BrandA"], 600);
  EXPECT_EQ(rows["BrandB"], 900);
}

TEST_F(OlapTest, SliceFixesDimension) {
  ASSERT_TRUE(view_->RollUp("product").ok());  // brand level
  ASSERT_TRUE(view_->Slice("product", rdf::Term::Iri(kInv + "BrandA")).ok());
  EXPECT_EQ(view_->LevelOf("product"), -1);
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("time").ok());  // year
  auto af = view_->Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // BrandA only, grouped by year: one row of 600.
  ASSERT_EQ(af.value().table().num_rows(), 1u);
  EXPECT_EQ(*sparql::Value::FromTerm(af.value().table().at(0, 1)).AsNumeric(),
            600);
}

TEST_F(OlapTest, DiceRestrictsRange) {
  // Dice on the measure path is not a dimension; dice on quantity through a
  // separate numeric dimension instead: add it via the fs range filter.
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("product").ok());
  // Restrict to invoices with quantity in [150, 450].
  ASSERT_TRUE(
      session_->fs().ClickRange({{kInv + "inQuantity"}}, 150, 450).ok());
  auto af = view_->Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  auto rows = Rows(af.value().table(), 1, 2);
  // Remaining: d1 200, d3 200, d4 400, d6 400 -> BrandA 400, BrandB 800.
  EXPECT_EQ(rows["BrandA"], 400);
  EXPECT_EQ(rows["BrandB"], 800);
}

TEST_F(OlapTest, DiceOnDimensionLevel) {
  Dimension qty;
  qty.name = "qty";
  qty.levels = {{"quantity", {kInv + "inQuantity"}, ""}};
  MeasureSpec measure;
  measure.ops = {hifun::AggOp::kCount};
  AnalyticsSession s2(&g_);
  ASSERT_TRUE(s2.fs().ClickClass(kInv + "Invoice").ok());
  OlapView v2(&s2, {qty}, measure);
  ASSERT_TRUE(v2.Dice("qty", 100, 200).ok());
  auto af = v2.Materialize();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // Quantities 100 (x3) and 200 (x2): two groups.
  EXPECT_EQ(af.value().table().num_rows(), 2u);
}

TEST_F(OlapTest, PivotReordersColumns) {
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("time").ok());
  ASSERT_TRUE(view_->RollUp("product").ok());
  auto before = view_->Materialize();
  ASSERT_TRUE(before.ok());
  view_->Pivot();
  auto after = view_->Materialize();
  ASSERT_TRUE(after.ok());
  // Same cells, transposed key order: first column now holds brands.
  auto rows = Rows(after.value().table(), 0, 2);
  EXPECT_EQ(rows["BrandA"], 600);
  EXPECT_EQ(rows["BrandB"], 900);
}

TEST_F(OlapTest, SliceOnDerivedLevelUnsupported) {
  ASSERT_TRUE(view_->RollUp("time").ok());  // month (derived)
  EXPECT_EQ(view_->Slice("time", rdf::Term::Integer(1)).code(),
            StatusCode::kUnsupported);
}

TEST_F(OlapTest, UnknownDimensionErrors) {
  EXPECT_FALSE(view_->RollUp("nope").ok());
  EXPECT_FALSE(view_->SetLevel("nope", 0).ok());
}

// A roll-up re-issues the query at the coarser level. On a generated KG,
// each (branch x brand) cell of the rolled-up cube must equal both a direct
// query at that grouping and the fold of the (branch x product) cells of
// that brand with the aggregate's own merge (SUM and COUNT add, MIN and MAX
// compare, AVG is the summed SUM over the summed COUNT).
class OlapRollUpTest : public ::testing::Test {
 protected:
  using Cells = std::map<std::string, std::vector<double>>;

  void SetUp() override {
    workload::InvoicesOptions opt;
    opt.invoices = 500;
    opt.branches = 6;
    opt.products = 30;
    workload::GenerateInvoices(&g_, opt);
  }

  /// The (branch x product) cube of `ops` over inQuantity, rolled up to
  /// (branch x brand) when `rolled`.
  sparql::ResultTable Cube(std::vector<hifun::AggOp> ops, bool rolled) {
    AnalyticsSession session(&g_);
    EXPECT_TRUE(session.fs().ClickClass(kInv + "Invoice").ok());
    Dimension branch{"branch", {{"branch", {kInv + "takesPlaceAt"}, ""}}};
    Dimension product{"product",
                      {{"product", {kInv + "delivers"}, ""},
                       {"brand", {kInv + "delivers", kInv + "brand"}, ""}}};
    MeasureSpec measure;
    measure.path = {kInv + "inQuantity"};
    measure.ops = std::move(ops);
    OlapView view(&session, {branch, product}, measure);
    if (rolled) EXPECT_TRUE(view.RollUp("product").ok());
    auto af = view.Materialize();
    EXPECT_TRUE(af.ok()) << af.status().ToString();
    return af.ok() ? af.value().table() : sparql::ResultTable();
  }

  /// (branch x brand) by `ops` straight from a session, without the view.
  sparql::ResultTable Direct(std::vector<hifun::AggOp> ops) {
    AnalyticsSession s(&g_);
    EXPECT_TRUE(s.fs().ClickClass(kInv + "Invoice").ok());
    EXPECT_TRUE(s.ClickGroupBy({{kInv + "takesPlaceAt"}, ""}).ok());
    EXPECT_TRUE(s.ClickGroupBy({{kInv + "delivers", kInv + "brand"}, ""}).ok());
    MeasureSpec m;
    m.path = {kInv + "inQuantity"};
    m.ops = std::move(ops);
    EXPECT_TRUE(s.ClickAggregate(m).ok());
    auto af = s.Execute();
    EXPECT_TRUE(af.ok()) << af.status().ToString();
    return af.ok() ? af.value().table() : sparql::ResultTable();
  }

  /// "branch|brand|" -> the aggregate columns after the two group columns.
  static Cells Canon(const sparql::ResultTable& t) {
    Cells out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::vector<double>& aggs = out[viz::DisplayTerm(t.at(r, 0)) + "|" +
                                      viz::DisplayTerm(t.at(r, 1)) + "|"];
      for (size_t c = 2; c < t.num_columns(); ++c) {
        aggs.push_back(*sparql::Value::FromTerm(t.at(r, c)).AsNumeric());
      }
    }
    return out;
  }

  /// Folds the (branch x product) cells into (branch x brand) cells,
  /// merging every aggregate column with `merge`.
  Cells FoldToBrand(const sparql::ResultTable& fine,
                    const std::function<double(double, double)>& merge) {
    const rdf::TermId brand = g_.terms().FindIri(kInv + "brand");
    Cells out;
    for (size_t r = 0; r < fine.num_rows(); ++r) {
      const auto of = g_.Match(g_.terms().Find(fine.at(r, 1)), brand,
                               rdf::kNoTermId);
      EXPECT_EQ(of.size(), 1u);
      if (of.empty()) continue;
      const std::string key = viz::DisplayTerm(fine.at(r, 0)) + "|" +
                              viz::DisplayTerm(g_.terms().Get(of[0].o)) + "|";
      auto [it, fresh] = out.try_emplace(key);
      for (size_t c = 2; c < fine.num_columns(); ++c) {
        const double v = *sparql::Value::FromTerm(fine.at(r, c)).AsNumeric();
        if (fresh) {
          it->second.push_back(v);
        } else {
          it->second[c - 2] = merge(it->second[c - 2], v);
        }
      }
    }
    return out;
  }

  rdf::Graph g_;
};

TEST_F(OlapRollUpTest, SumRollUpMatchesDirectQuery) {
  const Cells rolled = Canon(Cube({hifun::AggOp::kSum}, true));
  ASSERT_GT(rolled.size(), 6u);
  EXPECT_EQ(rolled, Canon(Direct({hifun::AggOp::kSum})));
  EXPECT_EQ(rolled, FoldToBrand(Cube({hifun::AggOp::kSum}, false),
                                std::plus<double>()));
}

TEST_F(OlapRollUpTest, CountRollUpSumsPartialCounts) {
  const Cells rolled = Canon(Cube({hifun::AggOp::kCount}, true));
  EXPECT_EQ(rolled, Canon(Direct({hifun::AggOp::kCount})));
  EXPECT_EQ(rolled, FoldToBrand(Cube({hifun::AggOp::kCount}, false),
                                std::plus<double>()));
}

TEST_F(OlapRollUpTest, MinMaxRollUp) {
  const std::vector<hifun::AggOp> ops = {hifun::AggOp::kMin};
  EXPECT_EQ(Canon(Cube(ops, true)),
            FoldToBrand(Cube(ops, false),
                        [](double a, double b) { return std::min(a, b); }));
  const std::vector<hifun::AggOp> max = {hifun::AggOp::kMax};
  EXPECT_EQ(Canon(Cube(max, true)), Canon(Direct(max)));
  EXPECT_EQ(Canon(Cube(max, true)),
            FoldToBrand(Cube(max, false),
                        [](double a, double b) { return std::max(a, b); }));
}

TEST_F(OlapRollUpTest, AverageRollsUpFromSumCountPair) {
  const Cells rolled = Canon(Cube(
      {hifun::AggOp::kSum, hifun::AggOp::kCount, hifun::AggOp::kAvg}, true));
  const Cells fine = FoldToBrand(
      Cube({hifun::AggOp::kSum, hifun::AggOp::kCount}, false),
      std::plus<double>());
  ASSERT_EQ(rolled.size(), fine.size());
  for (const auto& [key, aggs] : rolled) {
    SCOPED_TRACE(key);
    ASSERT_EQ(aggs.size(), 3u);
    const std::vector<double>& parts = fine.at(key);
    EXPECT_EQ(aggs[0], parts[0]);
    EXPECT_EQ(aggs[1], parts[1]);
    EXPECT_NEAR(aggs[2], parts[0] / parts[1], 1e-9);
  }
}

// set_cache's point: moving back to a level already seen (roll-up, then
// drill-down back, then roll-up again) serves the memoized cube, byte for
// byte the cube first computed there.
TEST_F(OlapRollUpTest, DrillDownBackServesTheCachedCube) {
  AnalyticsSession session(&g_);
  ASSERT_TRUE(session.fs().ClickClass(kInv + "Invoice").ok());
  Dimension product{"product",
                    {{"product", {kInv + "delivers"}, ""},
                     {"brand", {kInv + "delivers", kInv + "brand"}, ""}}};
  MeasureSpec measure;
  measure.path = {kInv + "inQuantity"};
  measure.ops = {hifun::AggOp::kSum};
  OlapView view(&session, {product}, measure);
  LruCache<AnswerFrame> cache(CacheOptions{});
  view.set_cache(&cache);
  auto tsv = [&view]() {
    auto af = view.Materialize();
    EXPECT_TRUE(af.ok()) << af.status().ToString();
    return af.ok() ? af.value().table().ToTsv() : std::string();
  };

  const std::string fine = tsv();
  ASSERT_TRUE(view.RollUp("product").ok());
  const std::string coarse = tsv();
  EXPECT_NE(coarse, fine);
  EXPECT_EQ(cache.Stats().misses, 2u);
  EXPECT_EQ(cache.Stats().hits, 0u);

  ASSERT_TRUE(view.DrillDown("product").ok());
  EXPECT_EQ(tsv(), fine);
  ASSERT_TRUE(view.RollUp("product").ok());
  EXPECT_EQ(tsv(), coarse);
  EXPECT_EQ(cache.Stats().misses, 2u);
  EXPECT_EQ(cache.Stats().hits, 2u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

}  // namespace
}  // namespace rdfa::analytics
