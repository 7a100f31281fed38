#ifndef RDFA_PERFBENCH_INPUTS_H_
#define RDFA_PERFBENCH_INPUTS_H_

// Seeded input generators of the loop benchmark. Everything a run sends —
// the store, the Q1–Q10 constants, the facet-session scripts, the think
// times and the writer's triples — is a pure function of the --seed, so two
// runs with one seed send byte-identical request streams.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "hifun/query.h"
#include "rdf/graph.h"
#include "workload/products.h"

namespace rdfa::perfbench {

/// Laptops in the benchmark's product KG (160,798 triples at seed 42 once
/// the RDFS closure is materialized).
inline constexpr size_t kLaptops = 20000;

/// The product-KG generator settings for `seed` (bench_efficiency's 20k
/// shape: companies = laptops / 100 + 5).
workload::ProductKgOptions KgOptions(uint64_t seed);

/// Q1–Q10 of bench_efficiency, verbatim: the fixed analytic suite the
/// olap-rw readers send.
const std::vector<std::string>& FixedSuiteHifun();

/// olap-distinct arrival `i`: template Q(i mod 10 + 1) with constants drawn
/// from (seed, i) — price and USB-port restrictions on the measure, HAVING
/// thresholds on the aggregate, price or year ranges on the grouping.
std::string DistinctHifun(uint64_t seed, uint64_t i);

/// ParseHifun + TranslateToSparql against the example namespace.
Result<std::string> HifunToSparql(const std::string& hifun);

/// One scripted analyst session, shaped like bench_user_tasks T1–T10:
/// class click (Laptop), one value / path / range filter, a group-by and
/// an aggregate, then execute. Fields index the choice lists of inputs.cc.
struct SessionScript {
  int filter_kind = 0;   ///< 0 value, 1 path, 2 USB range, 3 price range
  int filter_choice = 0; ///< company / country / range index
  int grouping = 0;      ///< manufacturer, origin o manufacturer, YEAR
  int measure = 0;       ///< COUNT, AVG price, MAX price, SUM+AVG price
  int having = -1;       ///< -1 none, else a threshold index (AVG only)
};

/// Distinct session kinds the analysts draw from. Popularity over the
/// catalog is Zipf-skewed, so analysts share paths and most clicks repeat
/// a text the answer cache already holds.
inline constexpr int kSessionKinds = 48;

/// Catalog entry `kind`: its shape is fixed by `kind`, its constants (which
/// company, country or range) are drawn from the seed.
SessionScript CatalogScript(uint64_t seed, int kind);

/// The catalog entry analyst `analyst` runs as its `n`-th session.
int SessionKind(uint64_t seed, int analyst, uint64_t n);

/// Think time in ms before click `n` of analyst `analyst`: exponential
/// with mean kThinkMeanMs, seeded. Compressed from human think times so a
/// run of a few seconds holds enough clicks for a supported p99.
inline constexpr double kThinkMeanMs = 4.0;
double ThinkMs(uint64_t seed, int analyst, uint64_t n);

/// The requests of one session, produced by driving the interaction
/// model: fs::Session current().intent.ToSparql() after the class click and
/// after the filter, and the HIFUN query AnalyticsSession synthesizes for
/// the execute click (the client translates it when it sends the click).
struct SessionSteps {
  std::string class_click;
  std::string filter_click;
  hifun::Query analytic;
};

/// Drives one session over `graph` (only read).
Result<SessionSteps> DriveSession(rdf::Graph* graph,
                                  const SessionScript& script);

struct TermTriple {
  rdf::Term s, p, o;
};

/// One committed laptop of the olap-rw writer: rdf:type, manufacturer,
/// price, releaseDate and USBPorts of a laptop IRI no generated laptop uses.
std::vector<TermTriple> WriterLaptop(uint64_t seed, uint64_t j);

}  // namespace rdfa::perfbench

#endif  // RDFA_PERFBENCH_INPUTS_H_
