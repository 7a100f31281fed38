// Tests for Table 5.1 SPARQL notations, graph removal, multi-root analysis
// contexts (§4.1.2), the endpoint query log, and the sports workload.

#include <gtest/gtest.h>

#include "endpoint/endpoint.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "fs/notations.h"
#include "hifun/context.h"
#include "hifun/evaluator.h"
#include "rdf/rdfs.h"
#include "sparql/value.h"
#include "translator/translator.h"
#include "viz/table_render.h"
#include "workload/products.h"
#include "workload/sports.h"

namespace rdfa {
namespace {

const std::string kEx = workload::kExampleNs;
const std::string kSp = workload::kSportsNs;

// ---------------- graph removal ----------------

TEST(GraphRemoveTest, RemoveMatchingPatterns) {
  rdf::Graph g;
  g.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:p"),
        rdf::Term::Iri("urn:x"));
  g.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:p"),
        rdf::Term::Iri("urn:y"));
  g.Add(rdf::Term::Iri("urn:b"), rdf::Term::Iri("urn:q"),
        rdf::Term::Iri("urn:x"));
  rdf::TermId a = g.terms().FindIri("urn:a");
  rdf::TermId p = g.terms().FindIri("urn:p");
  // Force indexes, then remove and re-query.
  EXPECT_EQ(g.Match(a, p, rdf::kNoTermId).size(), 2u);
  EXPECT_EQ(g.RemoveMatching(a, p, rdf::kNoTermId), 2u);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.Match(a, p, rdf::kNoTermId).empty());
  // Removed triples can be re-added.
  EXPECT_TRUE(g.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:p"),
                    rdf::Term::Iri("urn:x")));
  EXPECT_EQ(g.size(), 2u);
  // Removing with an interned-but-unused property: nothing matches. (A
  // never-interned term has no id — kNoTermId is the wildcard, by
  // contract.)
  rdf::TermId unused = g.terms().InternIri("urn:nope");
  EXPECT_EQ(g.RemoveMatching(rdf::kNoTermId, unused, rdf::kNoTermId), 0u);
}

// ---------------- Table 5.1 notations ----------------

class NotationsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BuildRunningExample(&g_);
    rdf::MaterializeRdfsClosure(&g_);
    for (const char* l : {"laptop1", "laptop2", "laptop3"}) {
      laptops_.insert(g_.terms().FindIri(kEx + l));
    }
  }
  rdf::Graph g_;
  fs::Extension laptops_;
};

TEST_F(NotationsTest, InstMatchesNativeInstances) {
  auto via_sparql = fs::EvalNotation(&g_, fs::InstSparql(kEx + "Laptop"));
  ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
  EXPECT_EQ(via_sparql.value(), laptops_);
}

TEST_F(NotationsTest, JoinsNotationMatchesNativeJoins) {
  fs::MaterializeExtension(&g_, laptops_);
  fs::PropRef man{kEx + "manufacturer", false};
  auto via_sparql = fs::EvalNotation(&g_, fs::JoinsSparql(man));
  ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
  EXPECT_EQ(via_sparql.value(), fs::Joins(g_, laptops_, man));
  // Cleanup removes exactly the materialized triples.
  EXPECT_EQ(fs::ClearExtension(&g_), laptops_.size());
  EXPECT_EQ(fs::ClearExtension(&g_), 0u);
}

TEST_F(NotationsTest, RestrictValueNotationMatchesNative) {
  fs::MaterializeExtension(&g_, laptops_);
  fs::PropRef man{kEx + "manufacturer", false};
  rdf::Term dell = rdf::Term::Iri(kEx + "DELL");
  auto via_sparql = fs::EvalNotation(&g_, fs::RestrictValueSparql(man, dell));
  ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
  EXPECT_EQ(via_sparql.value(),
            fs::Restrict(g_, laptops_, man, g_.terms().Find(dell)));
  fs::ClearExtension(&g_);
}

TEST_F(NotationsTest, RestrictClassNotationMatchesNative) {
  fs::Extension everything;
  for (const rdf::TripleId& t : g_.triples()) everything.insert(t.s);
  fs::MaterializeExtension(&g_, everything);
  auto via_sparql =
      fs::EvalNotation(&g_, fs::RestrictClassSparql(kEx + "Product"));
  ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
  // The materialization itself only added type triples, so native Restrict
  // over the original extension agrees.
  EXPECT_EQ(via_sparql.value(),
            fs::RestrictClass(g_, everything,
                              g_.terms().FindIri(kEx + "Product")));
  fs::ClearExtension(&g_);
}

TEST_F(NotationsTest, CountNotationMatchesFacetCount) {
  fs::MaterializeExtension(&g_, laptops_);
  fs::PropRef man{kEx + "manufacturer", false};
  rdf::Term dell = rdf::Term::Iri(kEx + "DELL");
  auto res = sparql::ExecuteQueryString(&g_,
                                        fs::RestrictCountSparql(man, dell));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().at(0, 0).lexical(), "2");
  fs::ClearExtension(&g_);
}

TEST_F(NotationsTest, InverseJoinsNotation) {
  fs::Extension usa = {g_.terms().FindIri(kEx + "USA")};
  fs::MaterializeExtension(&g_, usa);
  fs::PropRef inv_origin{kEx + "origin", true};
  auto via_sparql = fs::EvalNotation(&g_, fs::JoinsSparql(inv_origin));
  ASSERT_TRUE(via_sparql.ok());
  EXPECT_EQ(via_sparql.value(), fs::Joins(g_, usa, inv_origin));
  EXPECT_EQ(via_sparql.value().size(), 2u);  // DELL, AVDElectronics
  fs::ClearExtension(&g_);
}

// ---------------- multi-root contexts (§4.1.2) ----------------

TEST(MultiRootTest, ContextUnionsInstances) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  hifun::AnalysisContext both(
      g, std::vector<std::string>{kEx + "Laptop", kEx + "Company"});
  EXPECT_EQ(both.items().size(), 7u);  // 3 laptops + 4 companies
  hifun::AnalysisContext one(g, kEx + "Laptop");
  EXPECT_EQ(one.items().size(), 3u);
}

TEST(MultiRootTest, QueryOverTwoRootsAgreesAcrossStrategies) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  // Count items per class-agnostic manufacturer property across laptops
  // AND hard drives (both have `manufacturer`).
  hifun::Query q;
  q.root_class = kEx + "Laptop";
  q.extra_root_classes = {kEx + "SSD", kEx + "NVMe"};
  q.grouping = hifun::AttrExpr::Property(kEx + "manufacturer");
  q.measuring = hifun::AttrExpr::Identity();
  q.ops = {hifun::AggOp::kCount};

  hifun::Evaluator eval(g);
  auto direct = eval.Evaluate(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto sparql_text = translator::TranslateToSparql(q);
  ASSERT_TRUE(sparql_text.ok());
  EXPECT_NE(sparql_text.value().find("UNION"), std::string::npos);
  auto via_sparql = sparql::ExecuteQueryString(&g, sparql_text.value());
  ASSERT_TRUE(via_sparql.ok())
      << via_sparql.status().ToString() << "\n" << sparql_text.value();

  auto canon = [](const sparql::ResultTable& t) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out[viz::DisplayTerm(t.at(r, 0))] =
          sparql::Value::FromTerm(t.at(r, 1)).AsNumeric().value_or(-1);
    }
    return out;
  };
  auto a = canon(direct.value());
  auto b = canon(via_sparql.value());
  EXPECT_EQ(a, b);
  // DELL: 2 laptops; Maxtor: SSD1 + NVMe1; Lenovo: 1; AVDElectronics: SSD2.
  EXPECT_EQ(a.at("DELL"), 2);
  EXPECT_EQ(a.at("Maxtor"), 2);
}

// ---------------- endpoint responses and counters ----------------

TEST(EndpointLogTest, ResponsesAndCounters) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/true);
  const std::string q =
      "SELECT ?x WHERE { ?x <" + kEx + "price> ?p . }";
  auto first = ep.Query(q);
  auto second = ep.Query(q);  // cache hit
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(first.value().table.num_rows(), 3u);
  EXPECT_EQ(second.value().table.num_rows(), 3u);
  EXPECT_GE(first.value().exec_ms, 0);
  EXPECT_EQ(second.value().exec_ms, 0);
  endpoint::EndpointStats stats = ep.Stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(ep.cache_hits(), 1u);
}

TEST(EndpointLogTest, EmptyStats) {
  rdf::Graph g;
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local());
  EXPECT_EQ(ep.Stats().count, 0u);
}

// ---------------- sports workload ----------------

TEST(SportsTest, GeneratorShapesAndDeterminism) {
  rdf::Graph a, b;
  workload::SportsOptions opt;
  opt.players = 300;
  workload::GenerateSportsKg(&a, opt);
  workload::GenerateSportsKg(&b, opt);
  EXPECT_EQ(a.size(), b.size());

  rdf::TermId type = a.terms().FindIri(rdf::rdfns::kType);
  EXPECT_EQ(a.CountMatch(rdf::kNoTermId, type,
                         a.terms().FindIri(kSp + "Player")),
            300u);
  // Every player-season has functional goals/cleanSheets.
  hifun::AnalysisContext ctx(a, kSp + "Player");
  EXPECT_TRUE(ctx.Check(a, kSp + "goals").hifun_ready());
  EXPECT_TRUE(ctx.Check(a, kSp + "cleanSheets").hifun_ready());
}

TEST(SportsTest, IntroQueryAnswerable) {
  rdf::Graph g;
  workload::SportsOptions opt;
  opt.players = 600;
  workload::GenerateSportsKg(&g, opt);
  // Total goals of players in the Spanish league, season 2021.
  auto res = sparql::ExecuteQueryString(
      &g, "PREFIX sp: <" + kSp +
              ">\n"
              "SELECT (SUM(?g) AS ?goals) WHERE {\n"
              "  ?p a sp:Player ; sp:goals ?g ; sp:season sp:season2021 ;\n"
              "     sp:playsFor/sp:inLeague/sp:leagueCountry sp:Spain .\n"
              "}");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto v = sparql::Value::FromTerm(res.value().at(0, 0)).AsNumeric();
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(*v, 0);
}

}  // namespace
}  // namespace rdfa
