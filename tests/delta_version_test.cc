// Differential coverage for delta versions (Graph::NextVersion): a version
// that layers inserts and tombstones over a shared frozen base — heap or
// mapped — must be indistinguishable from its compaction. Query answers
// (Q1–Q10 plus seeded random BGPs, 1 and 4 threads, NLJ in source order and
// DP+merge) must match byte for byte, and so must every estimate, the
// statistics, the generation stamps and the all-wildcard enumeration order
// that feed the planner. The statistics and stamps are also checked against
// a plain heap graph that applied the same mutations and recomputed them
// from scratch.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hifun/hifun_parser.h"
#include "rdf/binary_io.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "test_temp_path.h"
#include "translator/translator.h"
#include "workload/products.h"

namespace rdfa {
namespace {

using rdf::Graph;
using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;
using rdf::TripleId;

const std::string kEx = workload::kExampleNs;

// bench_efficiency's analytic suite, as HIFUN.
const char* const kSuiteHifun[] = {
    "(manufacturer, ID, COUNT) over Laptop",
    "(manufacturer, price, AVG) over Laptop",
    "(origin o manufacturer, price, AVG) over Laptop",
    "(manufacturer, price / USBPorts >= 2, AVG) over Laptop",
    "(manufacturer, price, SUM+AVG+MAX) over Laptop",
    "((manufacturer x YEAR(releaseDate)), price, AVG) over Laptop",
    "(YEAR(releaseDate), ID, COUNT) over Laptop",
    "(manufacturer, price, AVG / > 1500) over Laptop",
    "(locatedAt o origin o manufacturer, price, AVG) over Laptop",
    "(eps, price, AVG+MIN+MAX) over Laptop",
};

std::vector<std::string> Queries() {
  std::vector<std::string> out;
  rdf::PrefixMap prefixes;
  for (const char* h : kSuiteHifun) {
    auto q = hifun::ParseHifun(h, prefixes, workload::kExampleNs);
    EXPECT_TRUE(q.ok()) << h;
    if (!q.ok()) continue;
    auto sparql = translator::TranslateToSparql(q.value());
    EXPECT_TRUE(sparql.ok()) << h;
    if (sparql.ok()) out.push_back(sparql.value());
  }
  // Seeded random BGPs: chains and stars over the product KG's properties,
  // half of them grouped. No ORDER BY: the order must come from the engine.
  const char* const kProps[] = {"manufacturer", "price",   "origin",
                                "hardDrive",    "USBPorts", "releaseDate",
                                "founder",      "locatedAt"};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 12; ++i) {
    const int n = 1 + static_cast<int>(rng() % 3);
    std::string where;
    for (int j = 0; j < n; ++j) {
      const bool chain = rng() % 2 == 0;
      const std::string subj = chain ? "?v" + std::to_string(j) : "?v0";
      where += subj + " <" + kEx + kProps[rng() % std::size(kProps)] +
               "> ?v" + std::to_string(j + 1) + " . ";
    }
    if (rng() % 2 == 0) {
      out.push_back("SELECT ?v1 (COUNT(?v0) AS ?n) WHERE { " + where +
                    "} GROUP BY ?v1");
    } else {
      out.push_back("SELECT * WHERE { " + where + "}");
    }
  }
  return out;
}

std::string Run(Graph* g, const std::string& query, int threads, bool dp) {
  sparql::Executor exec(g, /*reorder_joins=*/dp, /*push_filters=*/true,
                        threads);
  if (dp) {
    exec.set_use_dp(true);
  } else {
    exec.set_join_strategy(sparql::JoinStrategy::kNestedLoop);
  }
  auto parsed = sparql::ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << query;
  if (!parsed.ok()) return "<parse error>";
  auto table = exec.Execute(parsed.value());
  EXPECT_TRUE(table.ok()) << table.status().message() << "\n" << query;
  if (!table.ok()) return "<exec error>";
  return sparql::WriteResultsJson(table.value());
}

std::unique_ptr<Graph> BuildKg() {
  auto g = std::make_unique<Graph>();
  workload::ProductKgOptions opt;
  opt.laptops = 120;
  opt.seed = 5;
  opt.missing_price_rate = 0.05;
  opt.multi_founder_rate = 0.2;
  workload::GenerateProductKg(g.get(), opt);
  rdf::MaterializeRdfsClosure(g.get());
  return g;
}

// The mutation script, applied identically to the delta version and to the
// plain heap reference: removals of base triples (exact and wildcard),
// inserts of new laptops, removal of a fresh insert, and re-inserts of
// tombstoned triples.
void Mutate(Graph* g) {
  const TermId price = g->terms().FindIri(kEx + "price");
  const TermId manu = g->terms().FindIri(kEx + "manufacturer");
  ASSERT_NE(price, kNoTermId);
  ASSERT_NE(manu, kNoTermId);
  std::vector<TripleId> prices = g->Match(kNoTermId, price, kNoTermId);
  ASSERT_GT(prices.size(), 20u);
  // Exact removals of committed triples.
  for (size_t i = 0; i < 12; ++i) {
    const TripleId& t = prices[i * 3];
    EXPECT_EQ(g->RemoveMatching(t.s, t.p, t.o), 1u);
  }
  // A wildcard removal: every triple of one laptop.
  const TripleId victim = prices[40];
  EXPECT_GT(g->RemoveMatching(victim.s, kNoTermId, kNoTermId), 1u);
  // New laptops, one of which is removed again.
  for (int i = 0; i < 25; ++i) {
    const Term l = Term::Iri(kEx + "deltaLaptop" + std::to_string(i));
    g->Add(l, Term::Iri(rdf::rdfns::kType), Term::Iri(kEx + "Laptop"));
    g->Add(l, Term::Iri(kEx + "manufacturer"),
           Term::Iri(kEx + "company" + std::to_string(i % 4)));
    g->Add(l, Term::Iri(kEx + "price"), Term::Integer(900 + 37 * i));
    g->Add(l, Term::Iri(kEx + "USBPorts"), Term::Integer(i % 5));
  }
  const TermId gone = g->terms().FindIri(kEx + "deltaLaptop3");
  EXPECT_EQ(g->RemoveMatching(gone, kNoTermId, kNoTermId), 4u);
  // Re-insert tombstoned triples: they enumerate after the base.
  for (size_t i = 0; i < 4; ++i) {
    const TripleId& t = prices[i * 3];
    EXPECT_TRUE(g->AddIds(t));
  }
  // A wildcard removal that hits both base triples and fresh inserts.
  const TermId company1 = g->terms().FindIri(kEx + "company1");
  ASSERT_NE(company1, kNoTermId);
  EXPECT_GT(g->RemoveMatching(kNoTermId, manu, company1), 0u);
}

std::vector<std::string> Enumeration(const Graph& g) {
  std::vector<std::string> out;
  g.ForEachMatch(kNoTermId, kNoTermId, kNoTermId, [&](const TripleId& t) {
    out.push_back(g.terms().Get(t.s).ToNTriples() + " " +
                  g.terms().Get(t.p).ToNTriples() + " " +
                  g.terms().Get(t.o).ToNTriples());
  });
  return out;
}

std::string RenderStats(const Graph& g) {
  const rdf::GraphStats& st = g.Stats();
  std::string out = std::to_string(st.triples) + "/" +
                    std::to_string(st.distinct_subjects) + "/" +
                    std::to_string(st.distinct_predicates) + "/" +
                    std::to_string(st.distinct_objects) + "\n";
  std::map<std::string, std::string> by_pred;
  for (const auto& [p, ps] : st.by_predicate) {
    by_pred[g.terms().Get(p).ToNTriples()] =
        std::to_string(ps.triples) + "/" +
        std::to_string(ps.distinct_subjects) + "/" +
        std::to_string(ps.distinct_objects);
  }
  for (const auto& [p, line] : by_pred) out += p + " " + line + "\n";
  return out;
}

std::string RenderPredicateGenerations(const Graph& g) {
  std::map<std::string, uint64_t> gens;
  for (const auto& [p, gen] : g.PredicateGenerations()) {
    gens[g.terms().Get(p).ToNTriples()] = gen;
  }
  std::string out;
  for (const auto& [p, gen] : gens) out += p + "=" + std::to_string(gen) + " ";
  return out;
}

// `version` is a delta version; `reference` applied the same mutations to a
// plain heap graph.
void ExpectEquivalent(std::shared_ptr<Graph> version, Graph* reference) {
  ASSERT_NE(version->delta_base(), nullptr);
  ASSERT_GT(version->delta_size(), 0u);
  std::shared_ptr<Graph> compacted = Graph::NextVersion(version);
  compacted->Compact();
  ASSERT_EQ(compacted->delta_base(), nullptr);
  compacted->Freeze();
  compacted->FreezeSecondaries();

  EXPECT_EQ(version->size(), compacted->size());
  EXPECT_EQ(version->size(), reference->size());
  EXPECT_EQ(version->Generation(), compacted->Generation());
  EXPECT_EQ(version->Generation(), reference->Generation());
  EXPECT_EQ(RenderPredicateGenerations(*version),
            RenderPredicateGenerations(*compacted));
  EXPECT_EQ(RenderPredicateGenerations(*version),
            RenderPredicateGenerations(*reference));
  EXPECT_EQ(RenderStats(*version), RenderStats(*compacted));
  EXPECT_EQ(RenderStats(*version), RenderStats(*reference));
  EXPECT_EQ(Enumeration(*version), Enumeration(*compacted));
  EXPECT_EQ(Enumeration(*version), Enumeration(*reference));

  // Every bound/free shape on every permutation, over terms the delta
  // touched and terms it did not.
  std::vector<TermId> probe_terms = {kNoTermId};
  std::mt19937_64 rng(3);
  const size_t n_terms = version->terms().size();
  for (int i = 0; i < 40; ++i) {
    probe_terms.push_back(static_cast<TermId>(rng() % n_terms));
  }
  version->ForEachMatch(kNoTermId, kNoTermId, kNoTermId,
                        [&](const TripleId& t) {
                          if (rng() % 97 == 0) {
                            probe_terms.push_back(t.s);
                            probe_terms.push_back(t.p);
                            probe_terms.push_back(t.o);
                          }
                        });
  for (int trial = 0; trial < 600; ++trial) {
    const TermId s = probe_terms[rng() % probe_terms.size()];
    const TermId p = probe_terms[rng() % probe_terms.size()];
    const TermId o = probe_terms[rng() % probe_terms.size()];
    EXPECT_EQ(version->EstimateMatch(s, p, o),
              compacted->EstimateMatch(s, p, o));
    EXPECT_EQ(version->Contains(s, p, o), compacted->Contains(s, p, o));
    for (int perm = 0; perm < Graph::kNumPerms; ++perm) {
      const auto pm = static_cast<Graph::Perm>(perm);
      EXPECT_EQ(version->EstimateInPerm(pm, s, p, o),
                compacted->EstimateInPerm(pm, s, p, o))
          << "perm " << perm;
      std::vector<TripleId> a, b;
      version->ForEachInPerm(pm, s, p, o,
                             [&](const TripleId& t) { a.push_back(t); });
      compacted->ForEachInPerm(pm, s, p, o,
                               [&](const TripleId& t) { b.push_back(t); });
      ASSERT_EQ(a.size(), b.size()) << "perm " << perm;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].s == b[i].s && a[i].p == b[i].p && a[i].o == b[i].o)
            << "perm " << perm << " row " << i;
      }
    }
  }

  for (const std::string& q : Queries()) {
    for (int threads : {1, 4}) {
      for (bool dp : {false, true}) {
        EXPECT_EQ(Run(version.get(), q, threads, dp),
                  Run(compacted.get(), q, threads, dp))
            << "threads " << threads << " dp " << dp << "\n" << q;
      }
    }
  }
}

TEST(DeltaVersionTest, HeapBaseMatchesCompaction) {
  std::shared_ptr<Graph> base = BuildKg();
  base->Freeze();
  std::shared_ptr<Graph> version = Graph::NextVersion(base);
  Mutate(version.get());
  auto reference = BuildKg();
  Mutate(reference.get());
  reference->Freeze();
  ExpectEquivalent(version, reference.get());
}

TEST(DeltaVersionTest, MappedBaseMatchesCompaction) {
  auto original = BuildKg();
  const std::string path =
      testing_util::TestTempPath("delta_version_mapped.rdfa");
  ASSERT_TRUE(rdf::SaveBinaryFile(*original, path).ok());
  auto opened = rdf::OpenMappedSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto reference = std::make_unique<Graph>();
  ASSERT_TRUE(rdf::LoadBinaryFile(path, reference.get()).ok());
  std::remove(path.c_str());

  std::shared_ptr<Graph> base = std::move(opened).value();
  ASSERT_NE(base->mapped(), nullptr);
  std::shared_ptr<Graph> version = Graph::NextVersion(base);
  Mutate(version.get());
  EXPECT_NE(version->mapped(), nullptr);  // still served off the snapshot
  Mutate(reference.get());
  reference->Freeze();
  ExpectEquivalent(version, reference.get());
}

// Contains asks for one exact triple on every backend: the heap, the mapped
// view and delta versions over either. A kNoTermId lane is not a wildcard,
// so every probe with one is false, even where the pattern would match.
TEST(DeltaVersionTest, ContainsIsExactOnEveryBackend) {
  std::shared_ptr<Graph> heap = BuildKg();
  heap->Freeze();
  const std::string path =
      testing_util::TestTempPath("delta_version_contains.rdfa");
  ASSERT_TRUE(rdf::SaveBinaryFile(*heap, path).ok());
  auto opened = rdf::OpenMappedSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::remove(path.c_str());
  std::shared_ptr<Graph> mapped = std::move(opened).value();
  ASSERT_NE(mapped->mapped(), nullptr);

  using Terms = std::vector<Term>;
  auto terms_of = [&](const TripleId& t) {
    return Terms{heap->terms().Get(t.s), heap->terms().Get(t.p),
                 heap->terms().Get(t.o)};
  };
  const std::vector<TripleId> base =
      heap->Match(kNoTermId, kNoTermId, kNoTermId);
  ASSERT_GE(base.size(), 2u);
  const Terms kept = terms_of(base[0]);
  const Terms dropped = terms_of(base[1]);
  const Terms added = {Term::Iri(kEx + "probeLaptop"), Term::Iri(kEx + "price"),
                       Term::Integer(1234)};

  std::vector<std::pair<std::string, std::shared_ptr<Graph>>> backends = {
      {"heap", heap}, {"mapped", mapped}};
  for (size_t i = 0; i < 2; ++i) {
    std::shared_ptr<Graph> version = Graph::NextVersion(backends[i].second);
    ASSERT_TRUE(version->Add(added[0], added[1], added[2]));
    const TripleId d = {version->terms().Find(dropped[0]),
                        version->terms().Find(dropped[1]),
                        version->terms().Find(dropped[2])};
    ASSERT_EQ(version->RemoveMatching(d.s, d.p, d.o), 1u);
    ASSERT_NE(version->delta_base(), nullptr);
    backends.emplace_back("delta over " + backends[i].first, version);
  }

  for (const auto& backend : backends) {
    SCOPED_TRACE(backend.first);
    const Graph& g = *backend.second;
    const bool delta = g.delta_base() != nullptr;
    auto ids = [&g](const Terms& t) {
      return TripleId{g.terms().Find(t[0]), g.terms().Find(t[1]),
                      g.terms().Find(t[2])};
    };
    const TripleId k = ids(kept), d = ids(dropped), a = ids(added);
    EXPECT_TRUE(g.Contains(k.s, k.p, k.o));
    EXPECT_EQ(g.Contains(d.s, d.p, d.o), !delta);
    EXPECT_EQ(g.Contains(a.s, a.p, a.o), delta);
    for (const TripleId& t : {k, d, a}) {
      for (int mask = 1; mask < 8; ++mask) {
        EXPECT_FALSE(g.Contains(mask & 1 ? kNoTermId : t.s,
                                 mask & 2 ? kNoTermId : t.p,
                                 mask & 4 ? kNoTermId : t.o))
            << "unbound lanes " << mask;
      }
    }
  }
}

// A merge cursor over a delta version streams the same entries, in the same
// order, with the same SeekGE landings as one over the compaction.
TEST(DeltaVersionTest, MergeCursorsMatchCompaction) {
  std::shared_ptr<Graph> base = BuildKg();
  base->Freeze();
  std::shared_ptr<Graph> version = Graph::NextVersion(base);
  Mutate(version.get());
  std::shared_ptr<Graph> compacted = Graph::NextVersion(version);
  compacted->Compact();
  compacted->Freeze();
  const TermId price = version->terms().FindIri(kEx + "price");
  const TermId manu = version->terms().FindIri(kEx + "manufacturer");
  std::mt19937_64 rng(9);
  for (TermId p : {price, manu}) {
    for (Graph::Perm perm : {Graph::kPermPOS, Graph::kPermPSO}) {
      Graph::MergeCursor a = version->OpenMergeCursor(perm, kNoTermId, p,
                                                      kNoTermId);
      Graph::MergeCursor b = compacted->OpenMergeCursor(perm, kNoTermId, p,
                                                        kNoTermId);
      while (!a.at_end() && !b.at_end()) {
        ASSERT_EQ(a.key(), b.key());
        const TripleId ta = a.triple(), tb = b.triple();
        ASSERT_TRUE(ta.s == tb.s && ta.p == tb.p && ta.o == tb.o);
        if (rng() % 5 == 0) {
          const TermId target = a.key() + static_cast<TermId>(rng() % 40);
          a.SeekGE(target);
          b.SeekGE(target);
        } else {
          a.Next();
          b.Next();
        }
      }
      EXPECT_TRUE(a.at_end());
      EXPECT_TRUE(b.at_end());
    }
  }
}

}  // namespace
}  // namespace rdfa
