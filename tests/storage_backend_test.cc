// Differential coverage for the RDFA3 storage backends: every query path —
// executor scans/joins/aggregates, OLAP rollups, MVCC commit/read races —
// must produce byte-identical results whether the graph was fully decoded
// onto the heap or is being served lazily off a compressed mapped snapshot.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/olap.h"
#include "analytics/session.h"
#include "rdf/binary_io.h"
#include "rdf/graph.h"
#include "rdf/mapped_graph.h"
#include "rdf/mvcc.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "test_temp_path.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

using rdf::Graph;
using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

constexpr char kPfx[] =
    "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

// No ORDER BY anywhere: determinism must come from the engine and the
// storage backend, not from an output sort.
const char* const kQueries[] = {
    "SELECT ?l ?p WHERE { ?l ex:price ?p }",
    "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c }",
    "SELECT ?m (COUNT(?l) AS ?n) (AVG(?p) AS ?avg) WHERE { "
    "?l ex:manufacturer ?m . ?l ex:price ?p } GROUP BY ?m",
    "SELECT ?l ?h WHERE { ?l rdf:type ex:Laptop . ?l ex:hardDrive ?h }",
    "SELECT ?l ?p WHERE { ?l ex:price ?p . FILTER(?p > 1200) }",
    "SELECT ?l ?f WHERE { ?l ex:manufacturer ?m . "
    "OPTIONAL { ?m ex:founder ?f } }",
};

std::string TempPath(const std::string& tag) {
  return testing_util::TestTempPath("storage_backend_" + tag + ".rdfa");
}

std::unique_ptr<Graph> BuildKg(uint64_t seed) {
  auto g = std::make_unique<Graph>();
  workload::ProductKgOptions opt;
  opt.laptops = 150;
  opt.seed = seed;
  opt.missing_price_rate = 0.05;
  opt.multi_founder_rate = 0.2;
  workload::GenerateProductKg(g.get(), opt);
  rdf::MaterializeRdfsClosure(g.get());
  return g;
}

std::string RunQuery(Graph* g, const std::string& query, int threads) {
  sparql::Executor exec(g, /*reorder_joins=*/true, /*push_filters=*/true,
                        threads);
  auto parsed = sparql::ParseQuery(kPfx + query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << query;
  if (!parsed.ok()) return "<parse error>";
  auto table = exec.Execute(parsed.value());
  EXPECT_TRUE(table.ok()) << table.status().message() << "\n" << query;
  if (!table.ok()) return "<exec error>";
  return sparql::WriteResultsJson(table.value());
}

// Saves `g` as RDFA3 and returns (heap reload, mapped open) of the file.
struct BackendPair {
  std::unique_ptr<Graph> heap;
  std::unique_ptr<Graph> mapped;
};

BackendPair SaveAndReopen(const Graph& g, const std::string& tag) {
  const std::string path = TempPath(tag);
  EXPECT_TRUE(rdf::SaveBinaryFile(g, path).ok());
  BackendPair pair;
  pair.heap = std::make_unique<Graph>();
  Status st = rdf::LoadBinaryFile(path, pair.heap.get());
  EXPECT_TRUE(st.ok()) << st.message();
  auto mapped = rdf::OpenMappedSnapshot(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().message();
  pair.mapped = std::move(mapped).value();
  // The mapping keeps the file's inode alive; unlinking now leaves nothing
  // behind in the temp directory.
  std::remove(path.c_str());
  return pair;
}

TEST(StorageBackendTest, MappedViewStructureMatchesHeap) {
  auto original = BuildKg(42);
  BackendPair pair = SaveAndReopen(*original, "structure");
  Graph& heap = *pair.heap;
  Graph& mapped = *pair.mapped;
  ASSERT_NE(mapped.mapped(), nullptr);
  EXPECT_EQ(mapped.size(), heap.size());
  EXPECT_EQ(mapped.terms().size(), heap.terms().size());
  EXPECT_EQ(mapped.size(), original->size());

  // Stats blocks restored identically on both backends.
  const rdf::GraphStats& hs = heap.Stats();
  const rdf::GraphStats& ms = mapped.Stats();
  EXPECT_EQ(hs.triples, ms.triples);
  EXPECT_EQ(hs.distinct_subjects, ms.distinct_subjects);
  EXPECT_EQ(hs.distinct_predicates, ms.distinct_predicates);
  EXPECT_EQ(hs.distinct_objects, ms.distinct_objects);
  EXPECT_EQ(hs.by_predicate.size(), ms.by_predicate.size());

  // Generation stamps survive the round trip on both backends.
  EXPECT_EQ(heap.Generation(), original->Generation());
  EXPECT_EQ(mapped.Generation(), original->Generation());
  auto hg = heap.PredicateGenerations();
  auto mg = mapped.PredicateGenerations();
  std::sort(hg.begin(), hg.end());
  std::sort(mg.begin(), mg.end());
  EXPECT_EQ(hg, mg);

  // Every term decodes to the exact term the heap table holds.
  for (size_t i = 0; i < heap.terms().size(); ++i) {
    ASSERT_EQ(mapped.terms().Get(static_cast<TermId>(i)),
              heap.terms().Get(static_cast<TermId>(i)))
        << "term " << i;
  }
}

TEST(StorageBackendTest, EstimatesAreExactlyEqualAcrossBackends) {
  // Exact estimate equality is a hard requirement: the BGP reorderer keys
  // join order off these numbers, so any drift would silently change result
  // byte order between backends.
  auto original = BuildKg(7);
  BackendPair pair = SaveAndReopen(*original, "estimates");
  Graph& heap = *pair.heap;
  Graph& mapped = *pair.mapped;
  const size_t n = heap.terms().size();
  std::vector<TermId> sample;
  for (size_t i = 0; i < n; i += 17) sample.push_back(static_cast<TermId>(i));
  sample.push_back(kNoTermId);
  for (TermId s : sample) {
    for (TermId p : sample) {
      EXPECT_EQ(heap.EstimateMatch(s, p, kNoTermId),
                mapped.EstimateMatch(s, p, kNoTermId));
      for (int perm = 0; perm < 3; ++perm) {
        const auto gp = static_cast<Graph::Perm>(perm);
        EXPECT_EQ(heap.EstimateInPerm(gp, s, p, kNoTermId),
                  mapped.EstimateInPerm(gp, s, p, kNoTermId));
        EXPECT_EQ(heap.EstimateInPerm(gp, kNoTermId, p, s),
                  mapped.EstimateInPerm(gp, kNoTermId, p, s));
      }
    }
  }
}

TEST(StorageBackendTest, ScansAndTriplesAgreeAcrossBackends) {
  auto original = BuildKg(99);
  BackendPair pair = SaveAndReopen(*original, "scans");
  Graph& heap = *pair.heap;
  Graph& mapped = *pair.mapped;

  // Full enumeration: the mapped graph's lazy SPO materialization must
  // equal the heap loader's insertion order.
  ASSERT_EQ(mapped.triples().size(), heap.triples().size());
  for (size_t i = 0; i < heap.triples().size(); ++i) {
    const rdf::TripleId& h = heap.triples()[i];
    const rdf::TripleId& m = mapped.triples()[i];
    ASSERT_TRUE(h.s == m.s && h.p == m.p && h.o == m.o) << "triple " << i;
  }

  // Pattern scans in every permutation enumerate identically.
  for (int perm = 0; perm < 3; ++perm) {
    const auto gp = static_cast<Graph::Perm>(perm);
    for (TermId p = 0; p < heap.terms().size(); p += 23) {
      std::vector<rdf::TripleId> hv, mv;
      heap.ForEachInPerm(gp, kNoTermId, p, kNoTermId,
                         [&](const rdf::TripleId& t) { hv.push_back(t); });
      mapped.ForEachInPerm(gp, kNoTermId, p, kNoTermId,
                           [&](const rdf::TripleId& t) { mv.push_back(t); });
      ASSERT_EQ(hv.size(), mv.size()) << "perm " << perm << " p " << p;
      for (size_t i = 0; i < hv.size(); ++i) {
        ASSERT_TRUE(hv[i].s == mv[i].s && hv[i].p == mv[i].p &&
                    hv[i].o == mv[i].o);
      }
    }
  }

  // Contains agrees on hits and misses.
  for (size_t i = 0; i < heap.triples().size(); i += 13) {
    const rdf::TripleId& t = heap.triples()[i];
    EXPECT_TRUE(mapped.Contains(t.s, t.p, t.o));
    EXPECT_EQ(mapped.Contains(t.s, t.o, t.p), heap.Contains(t.s, t.o, t.p));
  }
}

TEST(StorageBackendTest, QueryResultsByteIdenticalAcrossSeedsAndThreads) {
  for (uint64_t seed : {42u, 7u, 99u}) {
    auto original = BuildKg(seed);
    BackendPair pair =
        SaveAndReopen(*original, "query_" + std::to_string(seed));
    for (int threads : {1, 4}) {
      for (const char* q : kQueries) {
        const std::string heap_json = RunQuery(pair.heap.get(), q, threads);
        const std::string mapped_json =
            RunQuery(pair.mapped.get(), q, threads);
        EXPECT_EQ(heap_json, mapped_json)
            << "seed " << seed << " threads " << threads << "\n" << q;
      }
    }
  }
}

TEST(StorageBackendTest, OlapRollupsByteIdenticalAcrossBackends) {
  const std::string kInv = workload::kInvoiceNs;
  Graph source;
  workload::BuildInvoicesExample(&source);
  BackendPair pair = SaveAndReopen(source, "olap");

  const auto run_cube = [&](Graph* g) {
    analytics::AnalyticsSession session(g);
    EXPECT_TRUE(session.fs().ClickClass(kInv + "Invoice").ok());
    analytics::Dimension time;
    time.name = "time";
    time.levels = {
        {"date", {kInv + "hasDate"}, ""},
        {"month", {kInv + "hasDate"}, "MONTH"},
        {"year", {kInv + "hasDate"}, "YEAR"},
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
    analytics::OlapView view(&session,
                             std::vector<analytics::Dimension>{time, product},
                             measure);
    std::string out;
    auto fine = view.Materialize();
    EXPECT_TRUE(fine.ok()) << fine.status().message();
    if (fine.ok()) out += sparql::WriteResultsCsv(fine.value().table());
    EXPECT_TRUE(view.RollUp("time").ok());
    EXPECT_TRUE(view.RollUp("product").ok());
    auto coarse = view.Materialize();
    EXPECT_TRUE(coarse.ok()) << coarse.status().message();
    if (coarse.ok()) out += sparql::WriteResultsCsv(coarse.value().table());
    return out;
  };

  const std::string heap_cube = run_cube(pair.heap.get());
  const std::string mapped_cube = run_cube(pair.mapped.get());
  EXPECT_FALSE(heap_cube.empty());
  EXPECT_EQ(heap_cube, mapped_cube);
}

TEST(StorageBackendTest, MappedBaseStaysAttachedAcrossCommitsAndCompaction) {
  auto original = BuildKg(42);
  BackendPair pair = SaveAndReopen(*original, "write");
  const Graph* mapped_base = pair.mapped.get();
  ASSERT_NE(mapped_base->mapped(), nullptr);
  const size_t base_size = mapped_base->size();
  rdf::MvccGraph mvcc(std::move(pair.mapped));
  const std::string p = "urn:post/p";
  auto insert = [&](int i) {
    mvcc.Insert(Term::Iri("urn:post/s" + std::to_string(i)), Term::Iri(p),
                Term::Iri("urn:post/o"));
    pair.heap->Add(Term::Iri("urn:post/s" + std::to_string(i)), Term::Iri(p),
                   Term::Iri("urn:post/o"));
  };
  // Small commits layer deltas over the snapshot: the mapped base object
  // stays the base, still attached, and nothing is decoded to the heap.
  for (int c = 0; c < 5; ++c) {
    insert(c);
    ASSERT_TRUE(mvcc.Commit().ok());
    rdf::MvccGraph::Pin pin = mvcc.Snapshot();
    ASSERT_EQ(pin.graph->delta_base(), mapped_base);
    EXPECT_NE(pin.graph->mapped(), nullptr);
    EXPECT_EQ(pin.graph->size(), base_size + static_cast<size_t>(c) + 1);
  }
  rdf::MvccGraph::Pin before = mvcc.Snapshot();
  for (const char* q : kQueries) {
    EXPECT_EQ(RunQuery(pair.heap.get(), q, 1),
              RunQuery(before.graph.get(), q, 1));
  }
  // One commit past the delta's fraction of the base compacts onto the
  // heap; the pinned pre-compaction version keeps reading the snapshot.
  for (size_t i = 5; i < 5 + base_size; ++i) insert(static_cast<int>(i));
  ASSERT_TRUE(mvcc.Commit().ok());
  rdf::MvccGraph::Pin after = mvcc.Snapshot();
  EXPECT_EQ(after.graph->delta_base(), nullptr);
  EXPECT_EQ(after.graph->mapped(), nullptr);
  EXPECT_EQ(before.graph->delta_base(), mapped_base);
  EXPECT_NE(before.graph->mapped(), nullptr);
  EXPECT_EQ(after.graph->size(), pair.heap->size());
  const TermId pid = after.graph->terms().FindIri(p);
  ASSERT_NE(pid, kNoTermId);
  EXPECT_EQ(before.graph->CountMatch(kNoTermId, pid, kNoTermId), 5u);
  for (const char* q : kQueries) {
    EXPECT_EQ(RunQuery(pair.heap.get(), q, 1),
              RunQuery(after.graph.get(), q, 1));
  }
}

// Saving over a snapshot that a live view maps must leave the view serving
// the old bytes: the save renames a new file into place instead of
// truncating the mapped one (which killed the reader with SIGBUS).
TEST(StorageBackendTest, OverwritingMappedSnapshotKeepsOldMappingServing) {
  const std::string path = TempPath("overwrite");
  auto original = BuildKg(42);
  ASSERT_TRUE(rdf::SaveBinaryFile(*original, path).ok());
  auto opened = rdf::OpenMappedSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<Graph> old_view = std::move(opened).value();
  ASSERT_NE(old_view->mapped(), nullptr);

  Graph smaller;
  workload::BuildInvoicesExample(&smaller);
  ASSERT_TRUE(rdf::SaveBinaryFile(smaller, path).ok());

  // The old mapping has not decoded its blocks yet; it must still answer
  // every query byte-identically to the graph it was saved from.
  for (const char* q : kQueries) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(RunQuery(old_view.get(), q, threads),
                RunQuery(original.get(), q, threads))
          << q;
    }
  }
  auto reopened = rdf::OpenMappedSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->size(), smaller.size());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
  std::remove(path.c_str());
}

TEST(StorageBackendTest, MvccCommitReadRacesByteIdenticalAcrossBackends) {
  // Same commit schedule against a heap-based and a mapped-based epoch 0;
  // readers race the writer on both. Any epoch observed on either backend
  // must map to exactly one result byte-string, shared by both.
  const char* kRaceQuery =
      "SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m } "
      "GROUP BY ?m";
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto original = BuildKg(seed);
    BackendPair pair =
        SaveAndReopen(*original, "mvcc_" + std::to_string(seed));
    for (int reader_threads : {1, 4}) {
      std::map<uint64_t, std::string> by_epoch;
      std::mutex mu;
      bool mismatch = false;
      auto race = [&](std::unique_ptr<Graph> base) {
        rdf::MvccGraph mvcc(std::move(base));
        std::atomic<bool> done{false};
        std::vector<std::thread> readers;
        for (int r = 0; r < reader_threads; ++r) {
          readers.emplace_back([&, r] {
            while (!done.load(std::memory_order_acquire)) {
              rdf::MvccGraph::Pin pin = mvcc.Snapshot();
              const std::string json =
                  RunQuery(pin.graph.get(), kRaceQuery, (r % 2) ? 4 : 1);
              std::lock_guard<std::mutex> lock(mu);
              auto [it, inserted] = by_epoch.emplace(pin.epoch, json);
              if (!inserted && it->second != json) mismatch = true;
            }
          });
        }
        for (int c = 0; c < 12; ++c) {
          const std::string tag = std::to_string(seed) + "_" +
                                  std::to_string(c);
          mvcc.Insert(Term::Iri("urn:race/l" + tag),
                      Term::Iri(std::string(workload::kExampleNs) +
                                "manufacturer"),
                      Term::Iri("urn:race/m" + std::to_string(c % 3)));
          auto epoch = mvcc.Commit();
          ASSERT_TRUE(epoch.ok()) << epoch.status().message();
        }
        done.store(true, std::memory_order_release);
        for (std::thread& t : readers) t.join();
        // Deterministic tail: record every epoch's final answer from the
        // committed version so both backends certainly cover epoch N.
        rdf::MvccGraph::Pin pin = mvcc.Snapshot();
        const std::string json = RunQuery(pin.graph.get(), kRaceQuery, 1);
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = by_epoch.emplace(pin.epoch, json);
        if (!inserted && it->second != json) mismatch = true;
      };
      race(std::move(pair.heap));
      race(std::move(pair.mapped));
      EXPECT_FALSE(mismatch)
          << "seed " << seed << " readers " << reader_threads;
      // Re-open for the next reader_threads round.
      pair = SaveAndReopen(*original, "mvcc_" + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace rdfa
