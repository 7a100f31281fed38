// Reproduces Tables 6.1 ("Efficiency - peak hours") and 6.2 ("Efficiency -
// off-peak hours") of the dissertation: the time to evaluate the analytic
// queries the interaction model generates, against an endpoint under peak
// vs. off-peak conditions.
//
// Substitution (see DESIGN.md): the paper measured a live remote endpoint;
// we measure the real local evaluation of the identical generated SPARQL
// and add a deterministic modeled endpoint overhead (load multiplier +
// network round trip). The *shape* to reproduce: every query stays
// interactive off-peak (sub-second for facet-sized work), peak hours
// multiply totals by a few x, and cost grows with query complexity and
// dataset size.
//
// Run: ./build/bench/bench_efficiency [--scale=1k|2k|20k] [--iters=N]
//                                     [--json=<path>] [--trace-out=<dir>]
//                                     [--query-log=<path>] [--cache-mb=N]
//   --scale: laptop count of the product KG (default: both 2k and 20k)
//   --iters: how many times to run the query suite per profile (default 1;
//            more iterations sharpen the p50/p99 figures)
//   --cache-mb: answer cache budget in MB (0 = off, the default).
//            With the cache on, iterations past the first hit the cache and
//            every cached answer is byte-compared against the uncached
//            first-iteration answer (any difference is a bench failure);
//            hit rates land in the JSON output.
//   --mixed-writes=N: run the query suite for N rounds against an
//            MvccGraph-backed endpoint with one unrelated-predicate commit
//            between rounds; reports the answer-cache hit rate under
//            updates plus p50/p99 (JSON key "mixed_rw").
//   --global-invalidation: ablate the mixed leg to wildcard footprints
//            (classic whole-cache invalidation) — hit rate drops to 0.
//   --obs-overhead=N: run the suite N rounds with span profiling off and
//            on (interleaved), byte-compare every answer pair, and report
//            both p50s plus the relative overhead (JSON key
//            "observability" — the CI obs-gates job enforces the budget).
//   --json:  write one machine-readable JSON object for the run (scale,
//            iters, p50/p99, per-query ExecStats)
//   --trace-out:  write one Chrome trace-event JSON file per served query
//            (first iteration of each profile) under <dir>
//   --query-log:  append the endpoint's structured query log (one JSON
//            line per query) to <path>
//   --storage={heap,mmap}: run the storage-backend leg — save the KG as
//            RDFA2 (uncompressed) and RDFA3 (compressed), measure
//            cold-start (RDFA2 heap decode + index freeze vs RDFA3 mmap
//            open), bytes on disk, RSS deltas, and byte-compare the whole
//            query suite between the heap and mapped backends; the chosen
//            mode serves the timed suite. Results land under the JSON key
//            "storage" (consumed by the CI storage-gates job).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/trace.h"

#include "bench_util.h"
#include "endpoint/endpoint.h"
#include "hifun/hifun_parser.h"
#include "rdf/binary_io.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"
#include "workload/products.h"

namespace {

using rdfa::bench::JsonArray;
using rdfa::bench::JsonObject;
using rdfa::bench::MsSince;
using rdfa::bench::Percentile;
using rdfa::bench::WriteJsonFile;
using rdfa::endpoint::LatencyProfile;
using rdfa::endpoint::SimulatedEndpoint;

std::vector<double> g_latencies_ms;
std::vector<std::string> g_run_json;
rdfa::bench::TraceSink g_trace;
std::string g_query_log_path;
size_t g_cache_mb = 0;
rdfa::CacheStats g_answer_stats;
uint64_t g_cache_mismatches = 0;

void Accumulate(const rdfa::CacheStats& from, rdfa::CacheStats* into) {
  into->hits += from.hits;
  into->misses += from.misses;
  into->evictions += from.evictions;
  into->invalidations += from.invalidations;
  into->entries += from.entries;
  into->bytes += from.bytes;
}

/// Renders the answer cache's counters as a JSON object for the --json
/// output (consumed by the CI cache-ablation validator).
std::string CacheJson(const rdfa::CacheStats& s) {
  JsonObject obj;
  obj.AddInt("hits", s.hits);
  obj.AddInt("misses", s.misses);
  obj.AddNumber("hit_rate", s.HitRate());
  obj.AddInt("evictions", s.evictions);
  obj.AddInt("invalidations", s.invalidations);
  return obj.Render();
}

struct QuerySpec {
  const char* id;
  const char* description;
  const char* hifun;
};

// The query suite: the §5.1 examples plus increasingly complex analytic
// queries of the kinds Chapter 6 exercises.
const QuerySpec kSuite[] = {
    {"Q1", "count by manufacturer", "(manufacturer, ID, COUNT) over Laptop"},
    {"Q2", "avg price by manufacturer",
     "(manufacturer, price, AVG) over Laptop"},
    {"Q3", "avg price by manufacturer origin (path)",
     "(origin o manufacturer, price, AVG) over Laptop"},
    {"Q4", "avg price, usb-restricted",
     "(manufacturer, price / USBPorts >= 2, AVG) over Laptop"},
    {"Q5", "sum+avg+max by manufacturer",
     "(manufacturer, price, SUM+AVG+MAX) over Laptop"},
    {"Q6", "pairing: by manufacturer and year",
     "((manufacturer x YEAR(releaseDate)), price, AVG) over Laptop"},
    {"Q7", "derived: count by release year",
     "(YEAR(releaseDate), ID, COUNT) over Laptop"},
    {"Q8", "having: manufacturers with avg price > 1500",
     "(manufacturer, price, AVG / > 1500) over Laptop"},
    {"Q9", "long path: avg GDP of origin by continent",
     "(locatedAt o origin o manufacturer, price, AVG) over Laptop"},
    {"Q10", "global aggregate (no grouping)",
     "(eps, price, AVG+MIN+MAX) over Laptop"},
};

int RunProfile(rdfa::rdf::Graph* graph, const LatencyProfile& profile,
               const char* table_name, size_t n_triples, int iters) {
  SimulatedEndpoint endpoint(graph, profile);
  if (g_cache_mb > 0) {
    rdfa::CacheOptions copts;
    copts.max_bytes = g_cache_mb << 20;
    endpoint.set_cache_options(copts);
  }
  if (!g_query_log_path.empty()) {
    endpoint.set_query_log_path(g_query_log_path);
  }
  std::printf("\n%s  (%zu triples, profile=%s, load x%.1f, budget %.0f ms)\n",
              table_name, n_triples, profile.name.c_str(),
              profile.load_multiplier, endpoint.effective_timeout_ms());
  std::printf("%-4s %-45s %10s %10s %10s\n", "id", "query", "exec ms",
              "net ms", "total ms");
  int failures = 0;
  rdfa::rdf::PrefixMap prefixes;
  // First-iteration (uncached) answers, for the cache byte-identity check.
  std::vector<std::string> reference_tsv(std::size(kSuite));
  // Total and queue-wait times of every answered response (timeouts too).
  std::vector<double> totals;
  std::vector<double> queued;
  for (int iter = 0; iter < iters; ++iter) {
    double total = 0;
    for (const QuerySpec& spec : kSuite) {
      const size_t qi = static_cast<size_t>(&spec - kSuite);
      auto q = rdfa::hifun::ParseHifun(spec.hifun, prefixes,
                                       rdfa::workload::kExampleNs);
      if (!q.ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.id,
                     q.status().ToString().c_str());
        ++failures;
        continue;
      }
      auto sparql = rdfa::translator::TranslateToSparql(q.value());
      if (!sparql.ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.id,
                     sparql.status().ToString().c_str());
        ++failures;
        continue;
      }
      // Trace only the first iteration of each query: the span structure
      // repeats, and one file per (profile, query) keeps --trace-out tidy.
      std::shared_ptr<rdfa::Tracer> tracer =
          iter == 0 ? g_trace.StartRun() : nullptr;
      rdfa::QueryContext qctx;
      if (tracer != nullptr) qctx.set_tracer(tracer);
      auto resp = endpoint.Query(sparql.value(), qctx);
      if (tracer != nullptr) {
        (void)g_trace.FinishRun(tracer.get(), "efficiency");
      }
      if (!resp.ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.id,
                     resp.status().ToString().c_str());
        ++failures;
        continue;
      }
      if (resp.value().status.code() != rdfa::StatusCode::kResourceExhausted) {
        totals.push_back(resp.value().total_ms);
        queued.push_back(resp.value().queued_ms);
      }
      if (!resp.value().status.ok()) {
        std::printf("%-4s %-45s %30s\n", spec.id, spec.description,
                    resp.value().status.ToString().c_str());
        continue;
      }
      g_latencies_ms.push_back(resp.value().total_ms);
      if (g_cache_mb > 0) {
        // Cached (later-iteration) answers must be byte-identical to the
        // uncached first-iteration answer of the same query.
        std::string tsv = resp.value().table.ToTsv();
        if (iter == 0) {
          reference_tsv[qi] = std::move(tsv);
        } else if (tsv != reference_tsv[qi]) {
          std::fprintf(stderr,
                       "%s: cached answer differs from the uncached one\n",
                       spec.id);
          ++failures;
          ++g_cache_mismatches;
        }
      }
      if (iter == 0) {
        std::printf("%-4s %-45s %10.2f %10.2f %10.2f\n", spec.id,
                    spec.description, resp.value().exec_ms,
                    resp.value().network_ms, resp.value().total_ms);
        JsonObject run;
        run.AddString("query", spec.id);
        run.AddString("profile", profile.name);
        run.AddInt("triples", n_triples);
        run.AddNumber("exec_ms", resp.value().exec_ms);
        run.AddNumber("network_ms", resp.value().network_ms);
        run.AddNumber("total_ms", resp.value().total_ms);
        run.AddRaw("exec_stats", resp.value().exec_stats.ToJson());
        g_run_json.push_back(run.Render());
      }
      total += resp.value().total_ms;
    }
    if (iter == 0) {
      std::printf("%-4s %-45s %10s %10s %10.2f\n", "", "TOTAL", "", "",
                  total);
    }
  }
  rdfa::endpoint::EndpointStats stats = endpoint.Stats();
  std::printf("latency over %zu served: p50 %.2f ms, p99 %.2f ms, "
              "queued p50 %.2f ms / p99 %.2f ms "
              "(shed %zu, timed out %zu, cancelled %zu)\n",
              totals.size(), Percentile(totals, 0.50),
              Percentile(totals, 0.99), Percentile(queued, 0.50),
              Percentile(queued, 0.99), stats.shed, stats.timed_out,
              stats.cancelled);
  if (g_cache_mb > 0) {
    rdfa::CacheStats a = endpoint.answer_cache_stats();
    std::printf("cache: answer %llu hits / %llu misses (%.0f%%)\n",
                static_cast<unsigned long long>(a.hits),
                static_cast<unsigned long long>(a.misses), 100 * a.HitRate());
    Accumulate(a, &g_answer_stats);
  }
  return failures;
}

/// Mixed read/write leg: the query suite runs for `rounds` rounds against
/// an MvccGraph-backed endpoint while a writer commits one insert to an
/// *unrelated* predicate (ex:benchPoke) between rounds. With
/// predicate-granular invalidation the cached answers survive every commit
/// (nonzero hit rate from round 2 on); with --global-invalidation (the
/// ablation baseline: wildcard footprints, i.e. the old global-generation
/// stamp) every commit wipes the cache and the hit rate stays 0. Answers
/// are byte-compared against round 1 throughout — the poke predicate never
/// appears in the suite, so any drift is a correctness failure.
int RunMixedReadWrite(size_t laptops, int rounds, bool predicate_inval,
                      std::string* json_out) {
  auto base = std::make_unique<rdfa::rdf::Graph>();
  rdfa::workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.companies = laptops / 100 + 5;
  rdfa::workload::GenerateProductKg(base.get(), opt);
  rdfa::rdf::MaterializeRdfsClosure(base.get());
  const size_t n_triples = base->size();
  rdfa::rdf::MvccGraph mvcc(std::move(base));

  SimulatedEndpoint endpoint(&mvcc, LatencyProfile::Local(), true);
  rdfa::CacheOptions copts;
  copts.max_bytes = (g_cache_mb > 0 ? g_cache_mb : 64) << 20;
  endpoint.set_cache_options(copts);
  endpoint.set_predicate_invalidation(predicate_inval);

  std::printf("\n== mixed read/write (%zu triples, %d rounds, %s "
              "invalidation) ==\n",
              n_triples, rounds, predicate_inval ? "predicate" : "global");
  int failures = 0;
  uint64_t mismatches = 0;
  std::vector<double> latencies;
  std::vector<std::string> reference_tsv(std::size(kSuite));
  rdfa::rdf::PrefixMap prefixes;
  for (int round = 0; round < rounds; ++round) {
    for (const QuerySpec& spec : kSuite) {
      const size_t qi = static_cast<size_t>(&spec - kSuite);
      auto q = rdfa::hifun::ParseHifun(spec.hifun, prefixes,
                                       rdfa::workload::kExampleNs);
      if (!q.ok()) { ++failures; continue; }
      auto sparql = rdfa::translator::TranslateToSparql(q.value());
      if (!sparql.ok()) { ++failures; continue; }
      auto resp = endpoint.Query(sparql.value());
      if (!resp.ok() || !resp.value().status.ok()) {
        std::fprintf(stderr, "%s: mixed-rw query failed\n", spec.id);
        ++failures;
        continue;
      }
      latencies.push_back(resp.value().total_ms);
      std::string tsv = resp.value().table.ToTsv();
      if (round == 0) {
        reference_tsv[qi] = std::move(tsv);
      } else if (tsv != reference_tsv[qi]) {
        std::fprintf(stderr,
                     "%s: answer drifted under concurrent writes\n", spec.id);
        ++failures;
        ++mismatches;
      }
    }
    // The between-rounds write: one commit touching only ex:benchPoke.
    const std::string ns = rdfa::workload::kExampleNs;
    mvcc.Insert(
        rdfa::rdf::Term::Iri(ns + "poke" + std::to_string(round)),
        rdfa::rdf::Term::Iri(ns + "benchPoke"),
        rdfa::rdf::Term::Integer(round));
    auto committed = mvcc.Commit();
    if (!committed.ok()) {
      std::fprintf(stderr, "mixed-rw commit failed: %s\n",
                   committed.status().ToString().c_str());
      ++failures;
    }
  }
  rdfa::CacheStats a = endpoint.answer_cache_stats();
  std::printf("answer cache under updates: %llu hits / %llu misses "
              "(%.0f%%), %llu invalidations; p50 %.2f ms, p99 %.2f ms\n",
              static_cast<unsigned long long>(a.hits),
              static_cast<unsigned long long>(a.misses), 100 * a.HitRate(),
              static_cast<unsigned long long>(a.invalidations),
              Percentile(latencies, 0.50), Percentile(latencies, 0.99));
  if (json_out != nullptr) {
    JsonObject obj;
    obj.AddInt("rounds", static_cast<uint64_t>(rounds));
    obj.AddString("invalidation", predicate_inval ? "predicate" : "global");
    obj.AddRaw("answer_cache", CacheJson(a));
    obj.AddNumber("p50_ms", Percentile(latencies, 0.50));
    obj.AddNumber("p99_ms", Percentile(latencies, 0.99));
    obj.AddInt("mismatches", mismatches);
    *json_out = obj.Render();
  }
  return failures;
}

/// Deterministic admission/timeout demonstration: a held slot forces a
/// shed; a sub-millisecond budget forces a deadline trip.
int RunAdmissionDemo(rdfa::rdf::Graph* graph) {
  std::printf("\n== admission control & deadlines ==\n");
  int failures = 0;
  rdfa::rdf::PrefixMap prefixes;
  auto q = rdfa::hifun::ParseHifun(kSuite[0].hifun, prefixes,
                                   rdfa::workload::kExampleNs);
  if (!q.ok()) return 1;
  auto translated = rdfa::translator::TranslateToSparql(q.value());
  if (!translated.ok()) return 1;
  const std::string sparql = translated.value();

  {
    SimulatedEndpoint endpoint(graph, LatencyProfile::Local());
    rdfa::endpoint::AdmissionOptions opts;
    opts.max_in_flight = 1;
    opts.max_queue = 0;  // no waiting room: shed immediately when busy
    endpoint.set_admission(opts);
    auto held = endpoint.Admit();
    auto resp = endpoint.Query(sparql);
    if (resp.ok() && resp.value().status.code() ==
                         rdfa::StatusCode::kResourceExhausted) {
      std::printf("busy endpoint (1 in flight, no queue): %s\n",
                  resp.value().status.ToString().c_str());
    } else {
      std::printf("FAILED: expected a RESOURCE_EXHAUSTED shed\n");
      ++failures;
    }
  }
  {
    SimulatedEndpoint endpoint(graph, LatencyProfile::Local());
    rdfa::endpoint::AdmissionOptions opts;
    opts.base_timeout_ms = 0.001;  // sub-microsecond budget: must trip
    endpoint.set_admission(opts);
    auto resp = endpoint.Query(sparql);
    if (resp.ok() && resp.value().status.code() ==
                         rdfa::StatusCode::kDeadlineExceeded) {
      std::printf("0.001 ms budget: %s\n  partial stats: %s\n",
                  resp.value().status.ToString().c_str(),
                  resp.value().exec_stats.Summary().c_str());
    } else {
      std::printf("FAILED: expected a DEADLINE_EXCEEDED trip\n");
      ++failures;
    }
    rdfa::endpoint::EndpointStats stats = endpoint.Stats();
    std::printf("endpoint counters: shed %zu, timed out %zu, cancelled %zu, "
                "queued %.2f ms\n",
                stats.shed, stats.timed_out, stats.cancelled,
                resp.ok() ? resp.value().queued_ms : 0.0);
  }
  return failures;
}

/// The --storage leg: cold-start, on-disk footprint and backend
/// byte-identity for the RDFA3 compressed snapshot path. `mode` picks which
/// backend ("heap" or "mmap") serves the timed query-suite pass; both
/// cold-start numbers are always measured so the JSON carries the speedup
/// regardless of mode. Failures: any I/O error, or any suite query whose
/// answer bytes differ between the heap and mapped backends.
int RunStorageLeg(size_t laptops, const std::string& mode,
                  std::string* json_out) {
  namespace fs = std::filesystem;
  std::printf("\n== storage backends: RDFA2 heap decode vs RDFA3 mmap "
              "(%zu laptops, serving mode=%s) ==\n",
              laptops, mode.c_str());
  auto built = std::make_unique<rdfa::rdf::Graph>();
  rdfa::workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.companies = laptops / 100 + 5;
  rdfa::workload::GenerateProductKg(built.get(), opt);
  rdfa::rdf::MaterializeRdfsClosure(built.get());
  const size_t n_triples = built->size();

  std::error_code ec;
  const std::string dir = fs::temp_directory_path(ec).string();
  const std::string v2_path = dir + "/bench_storage_v2.rdfa";
  const std::string v3_path = dir + "/bench_storage_v3.rdfa";
  auto t = std::chrono::steady_clock::now();
  if (!rdfa::rdf::SaveBinaryFile(*built, v2_path,
                                 rdfa::rdf::kSnapshotVersionV2)
           .ok()) {
    std::fprintf(stderr, "storage: cannot write %s\n", v2_path.c_str());
    return 1;
  }
  const double save_v2_ms = MsSince(t);
  t = std::chrono::steady_clock::now();
  if (!rdfa::rdf::SaveBinaryFile(*built, v3_path).ok()) {
    std::fprintf(stderr, "storage: cannot write %s\n", v3_path.c_str());
    return 1;
  }
  const double save_v3_ms = MsSince(t);
  const uint64_t v2_bytes = fs::file_size(v2_path, ec);
  const uint64_t v3_bytes = fs::file_size(v3_path, ec);
  built.reset();  // cold starts should not sit on top of the builder's heap

  // Cold start, heap path: decode the uncompressed RDFA2 snapshot and
  // freeze the indexes — everything a server does before its first query.
  const uint64_t rss0 = rdfa::bench::ResidentBytes();
  t = std::chrono::steady_clock::now();
  auto heap_graph = std::make_unique<rdfa::rdf::Graph>();
  if (!rdfa::rdf::LoadBinaryFile(v2_path, heap_graph.get()).ok()) {
    std::fprintf(stderr, "storage: cannot load %s\n", v2_path.c_str());
    return 1;
  }
  heap_graph->Freeze();
  const double heap_load_ms = MsSince(t);
  const uint64_t rss_heap = rdfa::bench::ResidentBytes() - rss0;

  // Cold start, mapped path: mmap + section-table validation only; terms
  // and posting lists stay compressed until a query touches them.
  const uint64_t rss1 = rdfa::bench::ResidentBytes();
  t = std::chrono::steady_clock::now();
  auto mapped = rdfa::rdf::OpenMappedSnapshot(v3_path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "storage: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  const double mmap_open_ms = MsSince(t);
  const uint64_t rss_mmap = rdfa::bench::ResidentBytes() - rss1;
  std::unique_ptr<rdfa::rdf::Graph> mapped_graph = std::move(mapped).value();

  // Byte-identity: the full suite, heap-loaded RDFA3 vs the mapped view.
  auto heap_v3 = std::make_unique<rdfa::rdf::Graph>();
  if (!rdfa::rdf::LoadBinaryFile(v3_path, heap_v3.get()).ok()) {
    std::fprintf(stderr, "storage: cannot reload %s\n", v3_path.c_str());
    return 1;
  }
  int failures = 0;
  size_t identical = 0;
  double first_query_ms = 0;
  double suite_ms = 0;
  rdfa::rdf::PrefixMap prefixes;
  rdfa::rdf::Graph* serving =
      mode == "heap" ? heap_v3.get() : mapped_graph.get();
  for (const QuerySpec& spec : kSuite) {
    auto q = rdfa::hifun::ParseHifun(spec.hifun, prefixes,
                                     rdfa::workload::kExampleNs);
    auto sparql = q.ok() ? rdfa::translator::TranslateToSparql(q.value())
                         : rdfa::Result<std::string>(q.status());
    auto parsed = sparql.ok()
                      ? rdfa::sparql::ParseQuery(sparql.value())
                      : rdfa::Result<rdfa::sparql::ParsedQuery>(
                            sparql.status());
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.id,
                   parsed.status().ToString().c_str());
      ++failures;
      continue;
    }
    const auto run = [&](rdfa::rdf::Graph* g) -> std::string {
      rdfa::sparql::Executor exec(g);
      auto table = exec.Execute(parsed.value());
      if (!table.ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.id,
                     table.status().ToString().c_str());
        return "<error>";
      }
      return table.value().ToTsv();
    };
    t = std::chrono::steady_clock::now();
    const std::string serving_tsv = run(serving);
    const double ms = MsSince(t);
    if (first_query_ms == 0) first_query_ms = ms;
    suite_ms += ms;
    const std::string other_tsv =
        run(serving == heap_v3.get() ? mapped_graph.get() : heap_v3.get());
    if (serving_tsv == other_tsv && serving_tsv != "<error>") {
      ++identical;
    } else {
      std::fprintf(stderr,
                   "%s: heap and mapped backends disagree (storage leg)\n",
                   spec.id);
      ++failures;
    }
  }
  const double speedup = mmap_open_ms > 0 ? heap_load_ms / mmap_open_ms : 0;
  const double disk_ratio =
      v2_bytes > 0 ? static_cast<double>(v3_bytes) /
                         static_cast<double>(v2_bytes)
                   : 0;
  std::printf("disk: RDFA2 %llu B, RDFA3 %llu B (%.2fx)\n",
              static_cast<unsigned long long>(v2_bytes),
              static_cast<unsigned long long>(v3_bytes), disk_ratio);
  std::printf("cold start: heap %.2f ms, mmap %.2f ms (%.1fx); "
              "RSS delta heap %llu B, mmap %llu B\n",
              heap_load_ms, mmap_open_ms, speedup,
              static_cast<unsigned long long>(rss_heap),
              static_cast<unsigned long long>(rss_mmap));
  std::printf("suite on %s backend: %.2f ms total, first query %.2f ms; "
              "%zu/%zu answers byte-identical across backends\n",
              mode.c_str(), suite_ms, first_query_ms, identical,
              std::size(kSuite));

  JsonObject storage;
  storage.AddString("mode", mode);
  storage.AddInt("laptops", laptops);
  storage.AddInt("triples", n_triples);
  storage.AddInt("v2_bytes", v2_bytes);
  storage.AddInt("v3_bytes", v3_bytes);
  storage.AddNumber("disk_ratio", disk_ratio);
  storage.AddNumber("save_v2_ms", save_v2_ms);
  storage.AddNumber("save_v3_ms", save_v3_ms);
  storage.AddNumber("heap_load_ms", heap_load_ms);
  storage.AddNumber("mmap_open_ms", mmap_open_ms);
  storage.AddNumber("cold_start_speedup", speedup);
  storage.AddInt("rss_heap_bytes", rss_heap);
  storage.AddInt("rss_mmap_bytes", rss_mmap);
  storage.AddNumber("suite_ms", suite_ms);
  storage.AddNumber("first_query_ms", first_query_ms);
  storage.AddInt("suite_queries", std::size(kSuite));
  storage.AddInt("byte_identical", identical);
  *json_out = storage.Render();
  fs::remove(v2_path, ec);
  fs::remove(v3_path, ec);
  return failures;
}

/// The --obs-overhead leg: runs the query suite `rounds` times with
/// profiling off (no tracer attached) and, interleaved, with full span
/// profiling on, byte-comparing every pair of answers. Reports p50 per-query
/// latency for both modes and the relative overhead — the number the CI
/// obs-gates job holds under its budget — plus the distinct profile stage
/// names one traced run produced. Profiling must never change answer bytes;
/// any mismatch is a bench failure.
int RunObservabilityLeg(size_t laptops, int rounds, std::string* json_out) {
  auto graph = std::make_unique<rdfa::rdf::Graph>();
  rdfa::workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.companies = laptops / 100 + 5;
  rdfa::workload::GenerateProductKg(graph.get(), opt);
  rdfa::rdf::MaterializeRdfsClosure(graph.get());
  graph->Freeze();
  std::printf("\n== observability overhead: profiling on vs off "
              "(%zu triples, %d rounds) ==\n",
              graph->size(), rounds);

  rdfa::rdf::PrefixMap prefixes;
  std::vector<rdfa::sparql::ParsedQuery> parsed;
  for (const QuerySpec& spec : kSuite) {
    auto q = rdfa::hifun::ParseHifun(spec.hifun, prefixes,
                                     rdfa::workload::kExampleNs);
    auto sparql = q.ok() ? rdfa::translator::TranslateToSparql(q.value())
                         : rdfa::Result<std::string>(q.status());
    auto p = sparql.ok() ? rdfa::sparql::ParseQuery(sparql.value())
                         : rdfa::Result<rdfa::sparql::ParsedQuery>(
                               sparql.status());
    if (!p.ok()) {
      std::fprintf(stderr, "obs: %s: %s\n", spec.id,
                   p.status().ToString().c_str());
      return 1;
    }
    parsed.push_back(std::move(p).value());
  }

  int failures = 0;
  size_t identical = 0;
  std::vector<double> off_ms, on_ms;
  std::set<std::string> stages;
  // One untimed warmup pass so lazy index builds and page faults are paid
  // before either mode is measured.
  // DP ordering on: the planner-v2 configuration is the one worth
  // profiling, and its dp-plan/plan-v2 spans are part of stage coverage.
  for (const auto& q : parsed) {
    rdfa::sparql::Executor warm(graph.get());
    warm.set_use_dp(true);
    (void)warm.Execute(q);
  }
  for (int round = 0; round < rounds; ++round) {
    for (const auto& q : parsed) {
      rdfa::sparql::Executor off(graph.get());
      off.set_use_dp(true);
      auto t = std::chrono::steady_clock::now();
      auto off_res = off.Execute(q);
      off_ms.push_back(MsSince(t));

      rdfa::sparql::Executor on(graph.get());
      on.set_use_dp(true);
      auto tracer = std::make_shared<rdfa::Tracer>();
      rdfa::QueryContext ctx;
      ctx.set_tracer(tracer);
      on.set_query_context(std::move(ctx));
      t = std::chrono::steady_clock::now();
      auto on_res = on.Execute(q);
      on_ms.push_back(MsSince(t));

      if (!off_res.ok() || !on_res.ok()) {
        std::fprintf(stderr, "obs: suite query failed\n");
        ++failures;
        continue;
      }
      if (off_res.value().ToTsv() == on_res.value().ToTsv()) {
        ++identical;
      } else {
        std::fprintf(stderr,
                     "obs: profiling changed the answer bytes (round %d)\n",
                     round);
        ++failures;
      }
      for (const auto& span : tracer->FinishedSpans()) {
        stages.insert(span.name);
      }
    }
  }
  const double off_p50 = Percentile(off_ms, 0.50);
  const double on_p50 = Percentile(on_ms, 0.50);
  const double overhead_pct =
      off_p50 > 0 ? (on_p50 - off_p50) / off_p50 * 100.0 : 0;
  std::printf("profiling off p50 %.3f ms, on p50 %.3f ms (%+.1f%%); "
              "%zu/%zu answers byte-identical; %zu distinct stages\n",
              off_p50, on_p50, overhead_pct, identical, off_ms.size(),
              stages.size());
  if (json_out != nullptr) {
    JsonObject obj;
    obj.AddInt("rounds", static_cast<uint64_t>(rounds));
    obj.AddInt("suite_queries", std::size(kSuite));
    obj.AddNumber("off_p50_ms", off_p50);
    obj.AddNumber("on_p50_ms", on_p50);
    obj.AddNumber("overhead_pct", overhead_pct);
    obj.AddInt("byte_identical", identical);
    obj.AddInt("pairs", off_ms.size());
    obj.AddInt("distinct_stages", stages.size());
    *json_out = obj.Render();
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = 0;
  int iters = 1;
  int mixed_writes = 0;
  int obs_rounds = 0;
  bool global_invalidation = false;
  std::string json_path;
  std::string storage_mode;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = rdfa::bench::ParseScale(arg.c_str() + 8);
    } else if (arg.rfind("--iters=", 0) == 0) {
      int n = std::atoi(arg.c_str() + 8);
      iters = n < 1 ? 1 : n;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      long mb = std::atol(arg.c_str() + 11);
      g_cache_mb = mb < 0 ? 0 : static_cast<size_t>(mb);
    } else if (arg.rfind("--mixed-writes=", 0) == 0) {
      mixed_writes = std::atoi(arg.c_str() + 15);
    } else if (arg.rfind("--obs-overhead=", 0) == 0) {
      obs_rounds = std::atoi(arg.c_str() + 15);
    } else if (arg == "--global-invalidation") {
      global_invalidation = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      g_trace.set_dir(arg.substr(12));
    } else if (arg.rfind("--query-log=", 0) == 0) {
      g_query_log_path = arg.substr(12);
    } else if (arg.rfind("--storage=", 0) == 0) {
      storage_mode = arg.substr(10);
      if (storage_mode != "heap" && storage_mode != "mmap") {
        std::fprintf(stderr, "--storage wants heap or mmap, got %s\n",
                     storage_mode.c_str());
        return 1;
      }
    }
  }
  if (g_cache_mb > 0 && iters < 2) {
    // One iteration never revisits a query; bump so the cache can hit and
    // the byte-identity check has something to compare.
    iters = 2;
    std::printf("(--cache-mb set: raising --iters to 2 so cached answers "
                "can be exercised)\n");
  }
  std::printf("== Tables 6.1 / 6.2 reproduction: analytic-query efficiency, "
              "peak vs off-peak ==\n");
  int failures = 0;
  std::vector<size_t> scales =
      scale > 0 ? std::vector<size_t>{scale} : std::vector<size_t>{2000, 20000};
  // Last scale's KG outlives the loop: the admission demo reuses it.
  std::unique_ptr<rdfa::rdf::Graph> graph;
  for (size_t laptops : scales) {
    graph = std::make_unique<rdfa::rdf::Graph>();
    rdfa::workload::ProductKgOptions opt;
    opt.laptops = laptops;
    opt.companies = laptops / 100 + 5;
    rdfa::workload::GenerateProductKg(graph.get(), opt);
    rdfa::rdf::MaterializeRdfsClosure(graph.get());

    failures += RunProfile(graph.get(), LatencyProfile::Peak(),
                           "Table 6.1: Efficiency - peak hours",
                           graph->size(), iters);
    failures += RunProfile(graph.get(), LatencyProfile::OffPeak(),
                           "Table 6.2: Efficiency - off-peak hours",
                           graph->size(), iters);
  }
  failures += RunAdmissionDemo(graph.get());
  std::string mixed_json;
  if (mixed_writes > 0) {
    failures += RunMixedReadWrite(scales.front(), mixed_writes,
                                  !global_invalidation, &mixed_json);
  }
  std::string storage_json;
  if (!storage_mode.empty()) {
    failures += RunStorageLeg(scales.front(), storage_mode, &storage_json);
  }
  std::string obs_json;
  if (obs_rounds > 0) {
    failures += RunObservabilityLeg(scales.front(), obs_rounds, &obs_json);
  }
  std::printf(
      "\nshape check vs paper: off-peak totals are several times smaller "
      "than peak totals;\nall queries remain interactive (sub-second "
      "evaluation) at both scales.\n");

  if (!json_path.empty()) {
    JsonObject top;
    top.AddString("bench", "bench_efficiency");
    top.AddInt("scale", scale);
    top.AddInt("iters", static_cast<uint64_t>(iters));
    top.AddNumber("p50_ms", Percentile(g_latencies_ms, 0.50));
    top.AddNumber("p99_ms", Percentile(g_latencies_ms, 0.99));
    top.AddInt("failures", static_cast<uint64_t>(failures));
    top.AddInt("cache_mb", g_cache_mb);
    top.AddRaw("answer_cache", CacheJson(g_answer_stats));
    top.AddInt("cache_mismatches", g_cache_mismatches);
    if (!mixed_json.empty()) top.AddRaw("mixed_rw", mixed_json);
    if (!storage_json.empty()) top.AddRaw("storage", storage_json);
    if (!obs_json.empty()) top.AddRaw("observability", obs_json);
    top.AddRaw("runs", JsonArray(g_run_json));
    if (!WriteJsonFile(json_path, top.Render())) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
