#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "common/footprint.h"

namespace rdfa::rdf {
namespace {

Term Iri(const std::string& s) { return Term::Iri("urn:" + s); }

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_.Add(Iri("s1"), Iri("p1"), Iri("o1"));
    g_.Add(Iri("s1"), Iri("p1"), Iri("o2"));
    g_.Add(Iri("s1"), Iri("p2"), Iri("o1"));
    g_.Add(Iri("s2"), Iri("p1"), Iri("o1"));
    g_.Add(Iri("s2"), Iri("p2"), Term::Integer(5));
  }
  TermId Id(const std::string& s) { return g_.terms().Find(Iri(s)); }
  Graph g_;
};

TEST_F(GraphTest, SizeAndDeduplication) {
  EXPECT_EQ(g_.size(), 5u);
  EXPECT_FALSE(g_.Add(Iri("s1"), Iri("p1"), Iri("o1")));
  EXPECT_EQ(g_.size(), 5u);
}

TEST_F(GraphTest, ContainsExactTriple) {
  EXPECT_TRUE(g_.Contains(Id("s1"), Id("p1"), Id("o1")));
  EXPECT_FALSE(g_.Contains(Id("s1"), Id("p2"), Id("o2")));
}

TEST_F(GraphTest, MatchFullyBound) {
  EXPECT_EQ(g_.Match(Id("s1"), Id("p1"), Id("o1")).size(), 1u);
}

TEST_F(GraphTest, MatchSubjectWildcardRest) {
  auto out = g_.Match(Id("s1"), kNoTermId, kNoTermId);
  EXPECT_EQ(out.size(), 3u);
  for (const TripleId& t : out) EXPECT_EQ(t.s, Id("s1"));
}

TEST_F(GraphTest, MatchPredicateBound) {
  EXPECT_EQ(g_.Match(kNoTermId, Id("p1"), kNoTermId).size(), 3u);
}

TEST_F(GraphTest, MatchObjectBound) {
  EXPECT_EQ(g_.Match(kNoTermId, kNoTermId, Id("o1")).size(), 3u);
}

TEST_F(GraphTest, MatchSubjectObjectBoundPredicateFree) {
  auto out = g_.Match(Id("s1"), kNoTermId, Id("o1"));
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(GraphTest, MatchPredicateObjectBound) {
  EXPECT_EQ(g_.Match(kNoTermId, Id("p1"), Id("o1")).size(), 2u);
}

TEST_F(GraphTest, MatchAllWildcards) {
  EXPECT_EQ(g_.Match(kNoTermId, kNoTermId, kNoTermId).size(), 5u);
}

TEST_F(GraphTest, CountMatchAgreesWithMatch) {
  EXPECT_EQ(g_.CountMatch(Id("s1"), kNoTermId, kNoTermId), 3u);
  EXPECT_EQ(g_.CountMatch(kNoTermId, Id("p2"), kNoTermId), 2u);
}

TEST_F(GraphTest, EstimateIsUpperBound) {
  EXPECT_GE(g_.EstimateMatch(Id("s1"), kNoTermId, Id("o1")),
            g_.CountMatch(Id("s1"), kNoTermId, Id("o1")));
}

TEST_F(GraphTest, MatchAbsentTermYieldsNothing) {
  // An interned term that occurs in no triple matches nothing. (A term that
  // was never interned has no id; kNoTermId is the wildcard, by contract.)
  TermId lonely = g_.terms().Intern(Iri("nothere"));
  EXPECT_TRUE(g_.Match(lonely, kNoTermId, kNoTermId).empty());
  EXPECT_EQ(g_.terms().Find(Iri("neverseen")), kNoTermId);
}

TEST_F(GraphTest, IndexesStayCorrectAfterIncrementalAdds) {
  // Force index build, then add more and re-query.
  EXPECT_EQ(g_.Match(Id("s1"), kNoTermId, kNoTermId).size(), 3u);
  g_.Add(Iri("s1"), Iri("p3"), Iri("o3"));
  EXPECT_EQ(g_.Match(Id("s1"), kNoTermId, kNoTermId).size(), 4u);
}

TEST(GraphGenerationTest, PerPredicateEpochsAdvanceOnlyForTouchedPredicates) {
  Graph g;
  g.Add(Iri("s"), Iri("p1"), Iri("o"));
  g.Add(Iri("s"), Iri("p2"), Iri("o"));
  CacheFootprint fp1 = CacheFootprint::Of({"urn:p1"});
  CacheFootprint fp2 = CacheFootprint::Of({"urn:p2"});
  const uint64_t s1 = g.FootprintStamp(fp1);
  const uint64_t s2 = g.FootprintStamp(fp2);
  g.Add(Iri("s2"), Iri("p2"), Iri("o2"));
  EXPECT_EQ(g.FootprintStamp(fp1), s1) << "untouched predicate moved";
  EXPECT_GT(g.FootprintStamp(fp2), s2) << "touched predicate did not move";
  // Wildcard footprints track the global generation: any mutation moves it.
  CacheFootprint wild = CacheFootprint::Wildcard();
  const uint64_t w = g.FootprintStamp(wild);
  g.Add(Iri("s3"), Iri("p1"), Iri("o3"));
  EXPECT_GT(g.FootprintStamp(wild), w);
  // Removals only advance epochs of predicates that actually lost triples.
  const uint64_t s1b = g.FootprintStamp(fp1);
  const uint64_t s2b = g.FootprintStamp(fp2);
  g.RemoveMatching(g.terms().Find(Iri("s2")), kNoTermId, kNoTermId);
  EXPECT_EQ(g.FootprintStamp(fp1), s1b);
  EXPECT_GT(g.FootprintStamp(fp2), s2b);
}

TEST(GraphGenerationTest, MoveAssignNeverAliasesEitherSourceStamp) {
  // A moved-into graph must stamp strictly above anything either graph
  // stamped before, for every footprint size: cached entries keyed to the
  // old graphs can then never validate against the new one by accident.
  Graph a;
  a.Add(Iri("s"), Iri("p1"), Iri("o"));
  a.Add(Iri("s"), Iri("p2"), Iri("o"));
  a.Add(Iri("s"), Iri("p3"), Iri("o"));
  Graph b;
  for (int i = 0; i < 10; ++i) {
    b.Add(Iri("s" + std::to_string(i)), Iri("p1"), Iri("o"));
  }
  CacheFootprint one = CacheFootprint::Of({"urn:p1"});
  CacheFootprint two = CacheFootprint::Of({"urn:p1", "urn:p2"});
  CacheFootprint wild = CacheFootprint::Wildcard();
  std::vector<uint64_t> prior = {
      a.FootprintStamp(one), a.FootprintStamp(two), a.FootprintStamp(wild),
      b.FootprintStamp(one), b.FootprintStamp(wild)};
  a = std::move(b);
  for (uint64_t old_stamp : prior) {
    EXPECT_GT(a.FootprintStamp(one), old_stamp);
    EXPECT_GT(a.FootprintStamp(wild), old_stamp);
  }
  // And the merged counter keeps moving normally afterwards.
  const uint64_t after = a.FootprintStamp(one);
  a.Add(Iri("sx"), Iri("p1"), Iri("ox"));
  EXPECT_GT(a.FootprintStamp(one), after);
}

TEST(GraphGenerationTest, NextVersionCarriesEpochsAndTriples) {
  auto g = std::make_shared<Graph>();
  g->Add(Iri("s"), Iri("p1"), Iri("o"));
  g->Add(Iri("s"), Iri("p2"), Term::Integer(7));
  g->Freeze();
  CacheFootprint fp = CacheFootprint::Of({"urn:p1"});
  auto next = Graph::NextVersion(g);
  EXPECT_EQ(next->delta_base(), g.get());
  EXPECT_EQ(next->size(), g->size());
  EXPECT_EQ(next->Generation(), g->Generation());
  EXPECT_EQ(next->FootprintStamp(fp), g->FootprintStamp(fp));
  EXPECT_TRUE(next->Contains(next->terms().Find(Iri("s")),
                             next->terms().Find(Iri("p2")),
                             next->terms().Find(Term::Integer(7))));
  // Mutating the version edits only its delta; the base is untouched.
  next->Add(Iri("s2"), Iri("p1"), Iri("o2"));
  EXPECT_EQ(g->size(), 2u);
  EXPECT_EQ(next->size(), 3u);
  EXPECT_EQ(next->delta_size(), 1u);
  EXPECT_GT(next->FootprintStamp(fp), g->FootprintStamp(fp));
}

// Property-style randomized check: every pattern type returns exactly the
// triples a brute-force filter returns.
TEST(GraphPropertyTest, RandomizedPatternsMatchBruteForce) {
  std::mt19937_64 rng(123);
  Graph g;
  const int kTerms = 12;
  for (int i = 0; i < 300; ++i) {
    Term s = Term::Iri("urn:t" + std::to_string(rng() % kTerms));
    Term p = Term::Iri("urn:t" + std::to_string(rng() % kTerms));
    Term o = Term::Iri("urn:t" + std::to_string(rng() % kTerms));
    g.Add(s, p, o);
  }
  auto brute = [&](TermId s, TermId p, TermId o) {
    std::multiset<std::string> out;
    for (const TripleId& t : g.triples()) {
      if ((s == kNoTermId || t.s == s) && (p == kNoTermId || t.p == p) &&
          (o == kNoTermId || t.o == o)) {
        out.insert(std::to_string(t.s) + "," + std::to_string(t.p) + "," +
                   std::to_string(t.o));
      }
    }
    return out;
  };
  for (int trial = 0; trial < 200; ++trial) {
    auto pick = [&]() -> TermId {
      if (rng() % 3 == 0) return kNoTermId;
      return g.terms().Find(Term::Iri("urn:t" + std::to_string(rng() % kTerms)));
    };
    TermId s = pick(), p = pick(), o = pick();
    std::multiset<std::string> got;
    g.ForEachMatch(s, p, o, [&](const TripleId& t) {
      got.insert(std::to_string(t.s) + "," + std::to_string(t.p) + "," +
                 std::to_string(t.o));
    });
    EXPECT_EQ(got, brute(s, p, o)) << "pattern " << s << " " << p << " " << o;
  }
}

}  // namespace
}  // namespace rdfa::rdf
