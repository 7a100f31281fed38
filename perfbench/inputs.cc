#include "inputs.h"

#include <cmath>
#include <cstdio>

#include "analytics/session.h"
#include "fs/session.h"
#include "hifun/hifun_parser.h"
#include "rdf/namespaces.h"
#include "translator/translator.h"

namespace rdfa::perfbench {
namespace {

const std::string kEx = workload::kExampleNs;

/// SplitMix64 finalizer: every draw is a pure function of (seed, stream,
/// index, slot), so generators never depend on call order.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t index, uint64_t slot) {
  return Mix(Mix(Mix(Mix(seed) ^ stream) ^ index) ^ slot);
}

/// Uniform integer in [lo, hi).
int64_t Uniform(uint64_t bits, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(bits % static_cast<uint64_t>(hi - lo));
}

/// Uniform double in [0, 1) from the top 53 bits.
double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

/// Zipf(s = 1.1) rank in [0, n).
int Zipf(uint64_t bits, int n) {
  double total = 0;
  for (int k = 1; k <= n; ++k) total += 1.0 / std::pow(k, 1.1);
  double u = Unit(bits) * total;
  for (int k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(k, 1.1);
    if (u < 0) return k - 1;
  }
  return n - 1;
}

std::string Tenths(int64_t tenths) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%lld",
                static_cast<long long>(tenths / 10),
                static_cast<long long>(tenths % 10));
  return buf;
}

constexpr uint64_t kTemplates = 10;  // Q1–Q10

enum Stream : uint64_t {
  kDistinct = 1,
  kScript,
  kSessionPick,
  kThink,
  kWriter
};

size_t Companies() { return kLaptops / 100 + 5; }

constexpr int kCountries = 12;  // ProductKgOptions default
// Ranges of equal width, so a session's listing size does not depend on
// which one the seed picks.
constexpr int kUsbRanges[][2] = {{1, 2}, {2, 3}, {3, 4}, {4, 5}};
constexpr int kPriceRanges[][2] = {
    {300, 799}, {800, 1299}, {1300, 1799}, {1800, 2299}, {2300, 2799}};
constexpr double kHaving[] = {1500, 1600, 1650};

}  // namespace

workload::ProductKgOptions KgOptions(uint64_t seed) {
  workload::ProductKgOptions opt;
  opt.laptops = kLaptops;
  opt.companies = Companies();
  opt.seed = seed;
  return opt;
}

const std::vector<std::string>& FixedSuiteHifun() {
  static const std::vector<std::string> kSuite = {
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
  return kSuite;
}

std::string DistinctHifun(uint64_t seed, uint64_t i) {
  auto d = [&](uint64_t slot, int64_t lo, int64_t hi) {
    return std::to_string(Uniform(Draw(seed, kDistinct, i, slot), lo, hi));
  };
  auto tenths = [&](uint64_t slot, int64_t lo, int64_t hi) {
    return Tenths(Uniform(Draw(seed, kDistinct, i, slot), lo * 10, hi * 10));
  };
  const std::string lo = d(1, 300, 1600);
  const std::string hi = d(2, 1700, 3000);
  switch (i % kTemplates) {
    case 0:
      return "(manufacturer / price >= " + lo + ", ID, COUNT) over Laptop";
    case 1:
      return "(manufacturer, price / >= " + lo + " / <= " + hi +
             ", AVG) over Laptop";
    case 2:
      return "(origin o manufacturer, price / USBPorts >= " + d(3, 1, 5) +
             ", AVG / > " + tenths(4, 1400, 1700) + ") over Laptop";
    case 3:
      return "(manufacturer, price / USBPorts >= " + d(3, 1, 5) + " / >= " +
             lo + ", AVG) over Laptop";
    case 4:
      return "(manufacturer, price / <= " + hi + ", SUM+AVG+MAX) over Laptop";
    case 5:
      return "((manufacturer x YEAR(releaseDate)), price / >= " + lo +
             ", AVG) over Laptop";
    case 6:
      return "(YEAR(releaseDate) / price >= " + lo + " / price <= " + hi +
             ", ID, COUNT) over Laptop";
    case 7:
      return "(manufacturer, price / YEAR(releaseDate) >= " +
             d(5, 2018, 2023) + ", AVG / > " + tenths(4, 1400, 1700) +
             ") over Laptop";
    case 8:
      return "(locatedAt o origin o manufacturer, price / >= " + lo +
             " / <= " + hi + ", AVG) over Laptop";
    default:
      return "(eps, price / >= " + lo + " / <= " + hi +
             ", AVG+MIN+MAX) over Laptop";
  }
}

Result<std::string> HifunToSparql(const std::string& hifun) {
  rdf::PrefixMap prefixes;
  Result<hifun::Query> q = hifun::ParseHifun(hifun, prefixes, kEx);
  if (!q.ok()) return q.status();
  return translator::TranslateToSparql(q.value());
}

SessionScript CatalogScript(uint64_t seed, int kind) {
  // The catalog's shape is fixed by rank — which filter kind, grouping,
  // measure and HAVING each entry uses — so every seed sends the same mix
  // of listing sizes and query shapes; the seed picks the constants. Price
  // ranges take every other rank, so about half of the filter clicks list
  // one equal-width price band (~18.5% of the laptops): the middle of the
  // latency distribution is that listing, not a boundary between kinds.
  static constexpr int kFilterKindByRank[8] = {3, 0, 3, 2, 3, 0, 3, 1};
  SessionScript s;
  s.filter_kind = kFilterKindByRank[kind % 8];
  s.grouping = (kind / 4) % 3;
  s.measure = (kind / 12) % 4;
  s.having = s.measure == 1 && (kind / 4) % 2 == 1
                 ? (kind / 8) % static_cast<int>(std::size(kHaving))
                 : -1;
  const int64_t choices[] = {static_cast<int64_t>(Companies()), kCountries,
                             static_cast<int64_t>(std::size(kUsbRanges)),
                             static_cast<int64_t>(std::size(kPriceRanges))};
  s.filter_choice = static_cast<int>(
      Uniform(Draw(seed, kScript, static_cast<uint64_t>(kind), 1), 0,
              choices[s.filter_kind]));
  return s;
}

int SessionKind(uint64_t seed, int analyst, uint64_t n) {
  return Zipf(Draw(seed, kSessionPick, n, static_cast<uint64_t>(analyst)),
              kSessionKinds);
}

double ThinkMs(uint64_t seed, int analyst, uint64_t n) {
  const double u = Unit(Draw(seed, kThink, n, static_cast<uint64_t>(analyst)));
  return -kThinkMeanMs * std::log(1.0 - u);
}

Result<SessionSteps> DriveSession(rdf::Graph* graph,
                                  const SessionScript& script) {
  using fs::PropRef;
  analytics::AnalyticsSession session(graph);
  fs::Session& fs = session.fs();
  SessionSteps steps;
  RDFA_RETURN_NOT_OK(fs.ClickClass(kEx + "Laptop"));
  steps.class_click = fs.current().intent.ToSparql();

  const int c = script.filter_choice;
  switch (script.filter_kind) {
    case 0:
      RDFA_RETURN_NOT_OK(
          fs.ClickValue({PropRef{kEx + "manufacturer"}},
                        rdf::Term::Iri(kEx + "company" + std::to_string(c))));
      break;
    case 1:
      RDFA_RETURN_NOT_OK(fs.ClickValue(
          {PropRef{kEx + "manufacturer"}, PropRef{kEx + "origin"}},
          rdf::Term::Iri(kEx + "country" + std::to_string(c))));
      break;
    case 2:
      RDFA_RETURN_NOT_OK(fs.ClickRange({PropRef{kEx + "USBPorts"}},
                                       kUsbRanges[c][0], kUsbRanges[c][1]));
      break;
    default:
      RDFA_RETURN_NOT_OK(fs.ClickRange({PropRef{kEx + "price"}},
                                       kPriceRanges[c][0],
                                       kPriceRanges[c][1]));
      break;
  }
  steps.filter_click = fs.current().intent.ToSparql();

  analytics::GroupingSpec group;
  switch (script.grouping) {
    case 0: group.path = {kEx + "manufacturer"}; break;
    case 1: group.path = {kEx + "manufacturer", kEx + "origin"}; break;
    default:
      group.path = {kEx + "releaseDate"};
      group.derived_function = "YEAR";
      break;
  }
  RDFA_RETURN_NOT_OK(session.ClickGroupBy(group));
  analytics::MeasureSpec measure;
  switch (script.measure) {
    case 0: measure.ops = {hifun::AggOp::kCount}; break;
    case 1:
      measure.path = {kEx + "price"};
      measure.ops = {hifun::AggOp::kAvg};
      break;
    case 2:
      measure.path = {kEx + "price"};
      measure.ops = {hifun::AggOp::kMax};
      break;
    default:
      measure.path = {kEx + "price"};
      measure.ops = {hifun::AggOp::kSum, hifun::AggOp::kAvg};
      break;
  }
  RDFA_RETURN_NOT_OK(session.ClickAggregate(measure));
  if (script.having >= 0) {
    session.SetResultRestriction(">", kHaving[script.having]);
  }
  RDFA_ASSIGN_OR_RETURN(steps.analytic, session.BuildHifunQuery());
  return steps;
}

std::vector<TermTriple> WriterLaptop(uint64_t seed, uint64_t j) {
  auto d = [&](uint64_t slot, int64_t lo, int64_t hi) {
    return Uniform(Draw(seed, kWriter, j, slot), lo, hi);
  };
  const rdf::Term laptop =
      rdf::Term::Iri(kEx + "laptopw" + std::to_string(j));
  char date[32];
  std::snprintf(date, sizeof(date), "%04lld-%02lld-%02lldT00:00:00",
                static_cast<long long>(d(1, 2018, 2024)),
                static_cast<long long>(d(2, 1, 13)),
                static_cast<long long>(d(3, 1, 29)));
  auto ex = [](const std::string& local) { return rdf::Term::Iri(kEx + local); };
  return {
      {laptop, rdf::Term::Iri(rdf::rdfns::kType), ex("Laptop")},
      {laptop, ex("manufacturer"),
       ex("company" +
          std::to_string(d(4, 0, static_cast<int64_t>(Companies()))))},
      {laptop, ex("price"), rdf::Term::Integer(d(5, 300, 3000))},
      {laptop, ex("releaseDate"), rdf::Term::DateTime(date)},
      {laptop, ex("USBPorts"), rdf::Term::Integer(d(6, 1, 6))},
  };
}

}  // namespace rdfa::perfbench
