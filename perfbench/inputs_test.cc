// Checks that loop_bench's inputs are a pure function of the seed and that
// every generated request is one the engine accepts.
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target loop_bench_inputs_test
//   .bench_build/perfbench/loop_bench_inputs_test

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "inputs.h"
#include "rdf/rdfs.h"
#include "sparql/parser.h"
#include "translator/translator.h"

namespace rdfa::perfbench {
namespace {

constexpr uint64_t kArrivals = 400;

rdf::Graph MakeKg(uint64_t seed) {
  rdf::Graph graph;
  workload::GenerateProductKg(&graph, KgOptions(seed));
  rdf::MaterializeRdfsClosure(&graph);
  return graph;
}

/// Everything a run with `seed` sends, rendered as one string: the
/// olap-distinct texts, the session scripts and texts each analyst runs,
/// the think times, and the writer's triples.
std::string RequestStream(uint64_t seed) {
  std::string out;
  for (uint64_t i = 0; i < kArrivals; ++i) {
    out += DistinctHifun(seed, i) + "\n";
  }
  rdf::Graph graph = MakeKg(seed);
  for (int a = 0; a < 4; ++a) {
    for (uint64_t n = 0; n < 12; ++n) {
      auto steps = DriveSession(&graph, CatalogScript(seed, SessionKind(seed, a, n)));
      EXPECT_TRUE(steps.ok());
      if (!steps.ok()) continue;
      auto analytic = translator::TranslateToSparql(steps.value().analytic);
      EXPECT_TRUE(analytic.ok());
      out += steps.value().class_click + steps.value().filter_click +
             std::move(analytic).value_or("") + std::to_string(ThinkMs(seed, a, n)) + "\n";
    }
  }
  for (uint64_t j = 0; j < 50; ++j) {
    for (const auto& t : WriterLaptop(seed, j)) {
      out += t.s.ToNTriples() + t.p.ToNTriples() + t.o.ToNTriples() + "\n";
    }
  }
  return out;
}

TEST(LoopBenchInputs, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(RequestStream(11), RequestStream(11));
}

TEST(LoopBenchInputs, DifferentSeedChangesTheConstants) {
  uint64_t differ = 0;
  for (uint64_t i = 0; i < kArrivals; ++i) {
    if (DistinctHifun(11, i) != DistinctHifun(12, i)) ++differ;
  }
  EXPECT_GE(differ, kArrivals * 95 / 100);
  EXPECT_NE(WriterLaptop(11, 0)[2].o.ToNTriples(),
            WriterLaptop(12, 0)[2].o.ToNTriples());
  EXPECT_NE(ThinkMs(11, 0, 0), ThinkMs(12, 0, 0));
}

TEST(LoopBenchInputs, OlapDistinctTextsRarelyRepeat) {
  std::set<std::string> seen;
  for (uint64_t i = 0; i < kArrivals; ++i) seen.insert(DistinctHifun(11, i));
  EXPECT_GE(seen.size(), kArrivals * 98 / 100);
}

TEST(LoopBenchInputs, EveryHifunQueryParsesAndTranslates) {
  std::vector<std::string> hifun = FixedSuiteHifun();
  for (uint64_t seed : {1, 42}) {
    for (uint64_t i = 0; i < kArrivals; ++i) {
      hifun.push_back(DistinctHifun(seed, i));
    }
  }
  for (const std::string& q : hifun) {
    Result<std::string> sparql = HifunToSparql(q);
    ASSERT_TRUE(sparql.ok()) << q << ": " << sparql.status().ToString();
    EXPECT_TRUE(sparql::ParseQuery(sparql.value()).ok()) << sparql.value();
  }
}

TEST(LoopBenchInputs, EverySessionStepIsValidSparql) {
  rdf::Graph graph = MakeKg(42);
  for (int k = 0; k < kSessionKinds; ++k) {
    auto steps = DriveSession(&graph, CatalogScript(42, k));
    ASSERT_TRUE(steps.ok()) << k << ": " << steps.status().ToString();
    auto analytic = translator::TranslateToSparql(steps.value().analytic);
    ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
    for (const std::string& text :
         {steps.value().class_click, steps.value().filter_click,
          analytic.value()}) {
      EXPECT_TRUE(sparql::ParseQuery(text).ok()) << text;
    }
  }
}

}  // namespace
}  // namespace rdfa::perfbench
