// Property-based sweeps (TEST_P over seeds): randomized checks of the
// engine-level and model-level invariants the dissertation's guarantees
// rest on — never-empty transitions, count correctness, evaluation-strategy
// agreement, and join correctness against a naive reference evaluator.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "fs/session.h"
#include "hifun/evaluator.h"
#include "rdf/rdfs.h"
#include "sparql/bgp.h"
#include "sparql/executor.h"
#include "translator/translator.h"
#include "viz/table_render.h"
#include "workload/products.h"

namespace rdfa {
namespace {

const std::string kEx = workload::kExampleNs;

// ---------- random BGP joins vs a naive reference evaluator ----------

class RandomBgpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBgpTest, IndexJoinMatchesNaiveJoin) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  rdf::Graph g;
  const int kVocab = 8;
  auto t = [&](int i) { return rdf::Term::Iri("urn:v" + std::to_string(i)); };
  for (int i = 0; i < 250; ++i) {
    g.Add(t(static_cast<int>(rng() % kVocab)),
          t(static_cast<int>(rng() % 4)),  // few predicates: denser joins
          t(static_cast<int>(rng() % kVocab)));
  }

  // Random conjunctive pattern of 2-3 triples over variables a,b,c and
  // constants.
  auto random_node = [&](sparql::VarTable* vars) {
    (void)vars;
    int pick = static_cast<int>(rng() % 5);
    if (pick < 3) {
      const char* names[] = {"a", "b", "c"};
      return sparql::NodePattern::Var(names[pick]);
    }
    return sparql::NodePattern::Const(t(static_cast<int>(rng() % kVocab)));
  };

  for (int trial = 0; trial < 20; ++trial) {
    size_t n_patterns = 2 + rng() % 2;
    std::vector<sparql::TriplePattern> patterns;
    for (size_t i = 0; i < n_patterns; ++i) {
      sparql::VarTable dummy;
      patterns.push_back({random_node(&dummy), random_node(&dummy),
                          random_node(&dummy)});
    }

    // Engine evaluation.
    sparql::VarTable vars;
    std::vector<sparql::CompiledPattern> compiled;
    for (const auto& tp : patterns) {
      compiled.push_back(sparql::CompileTriple(tp, &vars, g));
    }
    sparql::BindingTable rows(vars.size());
    rows.AppendUnbound();
    sparql::JoinBgp(g, compiled, /*reorder=*/true, &rows);

    // Naive reference: nested loops over all triples.
    std::multiset<std::string> expected;
    std::function<void(size_t, std::map<std::string, rdf::TermId>)> recurse =
        [&](size_t depth, std::map<std::string, rdf::TermId> env) {
          if (depth == patterns.size()) {
            std::string key;
            for (const char* v : {"a", "b", "c"}) {
              auto it = env.find(v);
              key += (it == env.end() ? "-" : std::to_string(it->second)) +
                     "|";
            }
            expected.insert(key);
            return;
          }
          const sparql::TriplePattern& tp = patterns[depth];
          for (const rdf::TripleId& triple : g.triples()) {
            auto env2 = env;
            bool ok = true;
            auto unify = [&](const sparql::NodePattern& n, rdf::TermId val) {
              if (!n.is_var) {
                rdf::TermId want = g.terms().Find(n.term);
                if (want != val) ok = false;
                return;
              }
              auto it = env2.find(n.var);
              if (it != env2.end()) {
                if (it->second != val) ok = false;
              } else {
                env2[n.var] = val;
              }
            };
            unify(tp.s, triple.s);
            if (ok) unify(tp.p, triple.p);
            if (ok) unify(tp.o, triple.o);
            if (ok) recurse(depth + 1, std::move(env2));
          }
        };
    recurse(0, {});

    std::multiset<std::string> got;
    for (size_t r = 0; r < rows.size(); ++r) {
      const sparql::RowView row = rows[r];
      std::string key;
      for (const char* v : {"a", "b", "c"}) {
        int slot = vars.Find(v);
        rdf::TermId val =
            (slot >= 0 && static_cast<size_t>(slot) < row.size())
                ? row[slot]
                : rdf::kNoTermId;
        key += (val == rdf::kNoTermId ? "-" : std::to_string(val)) + "|";
      }
      got.insert(key);
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBgpTest, ::testing::Range(1, 6));

// ---------- FS model invariants over random click walks ----------

class FsInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(FsInvariantTest, OfferedTransitionsNeverEmptyAndCountsExact) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 60;
  opt.companies = 6;
  opt.seed = static_cast<uint64_t>(GetParam());
  workload::GenerateProductKg(&g, opt);
  rdf::MaterializeRdfsClosure(&g);

  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 17 + 1);
  fs::Session session(&g);
  ASSERT_TRUE(session.ClickClass(kEx + "Laptop").ok());

  for (int step = 0; step < 6; ++step) {
    auto facets = session.PropertyFacets();
    if (facets.empty()) break;
    const fs::PropertyFacet& facet = facets[rng() % facets.size()];
    if (facet.values.empty()) continue;
    const fs::ValueCount& vc = facet.values[rng() % facet.values.size()];

    size_t before = session.current().ext.size();
    Status st = session.ClickValue({facet.prop},
                                   g.terms().Get(vc.value));
    // Invariant 1: every *offered* value click succeeds (never-empty
    // guarantee of the model).
    ASSERT_TRUE(st.ok()) << st.ToString();
    // Invariant 2: the new extension size equals the displayed count.
    EXPECT_EQ(session.current().ext.size(), vc.count);
    EXPECT_LE(session.current().ext.size(), before);
    // Invariant 3: Back() restores the previous extension exactly.
    fs::Extension now = session.current().ext;
    ASSERT_TRUE(session.Back().ok());
    EXPECT_EQ(session.current().ext.size(), before);
    ASSERT_TRUE(session.ClickValue({facet.prop}, g.terms().Get(vc.value)).ok());
    EXPECT_EQ(session.current().ext, now);
  }
}

TEST_P(FsInvariantTest, SparqlOnlyAgreesWithNativeOnRandomWalk) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 40;
  opt.seed = static_cast<uint64_t>(GetParam()) + 100;
  workload::GenerateProductKg(&g, opt);
  rdf::MaterializeRdfsClosure(&g);

  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  fs::Session native(&g, fs::EvalMode::kNative);
  fs::Session sparql_only(&g, fs::EvalMode::kSparqlOnly);
  ASSERT_TRUE(native.ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(sparql_only.ClickClass(kEx + "Laptop").ok());
  EXPECT_EQ(native.current().ext, sparql_only.current().ext);

  for (int step = 0; step < 4; ++step) {
    auto facets = native.PropertyFacets();
    if (facets.empty()) break;
    const fs::PropertyFacet& facet = facets[rng() % facets.size()];
    if (facet.values.empty()) continue;
    const fs::ValueCount& vc = facet.values[rng() % facet.values.size()];
    rdf::Term value = g.terms().Get(vc.value);
    ASSERT_TRUE(native.ClickValue({facet.prop}, value).ok());
    ASSERT_TRUE(sparql_only.ClickValue({facet.prop}, value).ok());
    ASSERT_EQ(native.current().ext, sparql_only.current().ext)
        << "diverged after " << facet.prop.iri;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsInvariantTest, ::testing::Range(1, 6));

// ---------- HIFUN translation equivalence on random data ----------

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, RandomQueriesAgreeAcrossStrategies) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 120;
  opt.companies = 7;
  opt.seed = static_cast<uint64_t>(GetParam()) * 1000 + 3;
  workload::GenerateProductKg(&g, opt);

  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  const std::string groupings[] = {"manufacturer", "USBPorts"};
  const hifun::AggOp ops[] = {hifun::AggOp::kSum, hifun::AggOp::kAvg,
                              hifun::AggOp::kCount, hifun::AggOp::kMin,
                              hifun::AggOp::kMax};
  for (int trial = 0; trial < 8; ++trial) {
    hifun::Query q;
    q.root_class = kEx + "Laptop";
    q.grouping =
        hifun::AttrExpr::Property(kEx + groupings[rng() % 2]);
    q.measuring = hifun::AttrExpr::Property(kEx + "price");
    q.ops = {ops[rng() % 5]};
    if (rng() % 2 == 0) {
      hifun::Restriction r;
      r.path = {kEx + "USBPorts"};
      r.op = ">=";
      r.value = rdf::Term::Integer(static_cast<int64_t>(1 + rng() % 4));
      q.group_restrictions.push_back(std::move(r));
    }

    hifun::Evaluator eval(g);
    auto direct = eval.Evaluate(q);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto sparql_text = translator::TranslateToSparql(q);
    ASSERT_TRUE(sparql_text.ok());
    auto via_sparql = sparql::ExecuteQueryString(&g, sparql_text.value());
    ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();

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
    ASSERT_EQ(a.size(), b.size()) << q.ToString();
    for (const auto& [key, value] : a) {
      ASSERT_TRUE(b.count(key)) << q.ToString() << " group " << key;
      EXPECT_NEAR(value, b.at(key), 1e-6) << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace rdfa
