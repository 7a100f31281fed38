// loop_bench: end-to-end benchmark of the paper's interaction loop. A click
// becomes a HIFUN query, the translator turns it into SPARQL, the endpoint
// groups and aggregates, and an answer comes back — here over a real
// loopback socket to an in-process server wired like rdfa_server (MVCC
// store, answer + plan cache on, local latency profile, ephemeral port).
//
//   loop_bench --prepare --seed=N --snapshot=PATH
//       generates the product KG for the seed and saves it as RDFA3
//   loop_bench --workload=W --seed=N --seconds=S --trace=0|1
//              --snapshot=PATH --out-dir=DIR
//       W is olap-distinct, facet-sessions or olap-rw (see README.md)
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the schedule for
// half the time untraced over HTTP, then replays it for the other half
// through the server's own RequestHandler with a span around every layer
// call, and prints the per-layer metrics. The last stdout line is one JSON
// object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Any answer mismatch makes the exit code non-zero.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_log.h"
#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "inputs.h"
#include "rdf/binary_io.h"
#include "rdf/mvcc.h"
#include "rdf/rdfs.h"
#include "server/http_server.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"

namespace {

using rdfa::Result;
using rdfa::Status;
using rdfa::endpoint::EndpointRequest;
using rdfa::endpoint::EndpointResponse;
using rdfa::endpoint::RequestHandler;
using rdfa::endpoint::ResultFormat;
using rdfa::server::HttpClient;
namespace perfbench = rdfa::perfbench;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point After(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------------
// Workload shapes. Rates sit well below the capacity of a 4-core host so an
// open loop keeps a bounded backlog; each run still holds >= 1000 requests,
// enough for a supported p99.

enum class Workload { kOlapDistinct, kFacetSessions, kOlapRw };

constexpr int kDistinctConnections = 4;
constexpr double kDistinctRateRps = 40;
constexpr int kAnalysts = 4;
constexpr int kRwReaders = 3;
constexpr double kRwReadRateRps = 40;
constexpr double kCommitIntervalMs = 1000;
/// Server set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// One olap-distinct arrival in kDistinctSampleEvery is answer-checked.
constexpr uint64_t kDistinctSampleEvery = 24;
/// Commits timed after the load on workloads without a writer (traced run).
constexpr int kProbeCommits = 8;
constexpr double kHealthProbeIntervalMs = 10;
/// An open loop whose generator runs this late in its last quarter of
/// arrivals has a growing backlog: the run is invalid.
constexpr double kBacklogLimitMs = 100;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOlapDistinct: return "olap-distinct";
    case Workload::kFacetSessions: return "facet-sessions";
    case Workload::kOlapRw: return "olap-rw";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Percentiles that state their support.

struct Quantile {
  double value = 0;
  size_t n = 0;       ///< samples
  size_t beyond = 0;  ///< samples strictly above the chosen rank
  /// A tail (q > 0.5) needs 10 samples beyond it; a median needs one sample.
  bool supported = false;
};

Quantile QuantileOf(std::vector<double> v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  out.supported = q <= 0.5 || out.beyond >= 10;
  return out;
}

double Median(std::vector<double> v) { return QuantileOf(std::move(v), 0.5).value; }

// ---------------------------------------------------------------------------
// The server stack, wired like rdfa_server's defaults.

struct SetupTimes {
  double load_ms = 0, freeze_ms = 0, mvcc_ms = 0, server_ms = 0, total_s = 0;
};

struct Stack {
  // Declared in dependency order; destroyed server first.
  std::unique_ptr<rdfa::rdf::MvccGraph> mvcc;
  std::unique_ptr<rdfa::endpoint::SimulatedEndpoint> endpoint;
  std::unique_ptr<RequestHandler> handler;
  std::unique_ptr<rdfa::server::HttpServer> server;
};

Result<std::unique_ptr<Stack>> Setup(const std::string& snapshot,
                                     SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  auto base = std::make_unique<rdfa::rdf::Graph>();
  RDFA_RETURN_NOT_OK(rdfa::rdf::LoadBinaryFile(snapshot, base.get()));
  const auto t1 = Clock::now();
  base->Freeze();
  const auto t2 = Clock::now();
  rdfa::rdf::MvccGraph::Options mopts;
  mopts.update_fn = [](rdfa::rdf::Graph* g, const std::string& text) {
    auto applied = rdfa::sparql::ExecuteUpdateString(g, text);
    return applied.ok() ? Status::OK() : applied.status();
  };
  RDFA_ASSIGN_OR_RETURN(stack->mvcc, rdfa::rdf::MvccGraph::Open(
                                         std::move(mopts), std::move(base)));
  const auto t3 = Clock::now();
  stack->endpoint = std::make_unique<rdfa::endpoint::SimulatedEndpoint>(
      stack->mvcc.get(), rdfa::endpoint::LatencyProfile::Local(),
      /*enable_cache=*/true);
  rdfa::CacheOptions copts;
  copts.max_bytes = size_t{64} << 20;
  copts.max_entries = 4096;
  stack->endpoint->set_cache_options(copts);
  rdfa::endpoint::AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 64;
  adm.base_timeout_ms = 0;
  stack->endpoint->set_admission(adm);
  stack->endpoint->set_use_dp(true);
  stack->handler =
      std::make_unique<RequestHandler>(stack->endpoint.get(), 30'000);
  rdfa::server::HttpServerOptions sopts;
  sopts.port = 0;
  sopts.worker_threads = 4;
  stack->server =
      std::make_unique<rdfa::server::HttpServer>(stack->handler.get(), sopts);
  RDFA_RETURN_NOT_OK(stack->server->Start());
  HttpClient probe;
  HttpClient::Response resp;
  if (!probe.Connect("127.0.0.1", stack->server->port()) ||
      !probe.Get("/healthz", &resp) || resp.status != 200) {
    return Status::Internal("server did not answer /healthz with 200");
  }
  const auto t4 = Clock::now();
  times->load_ms = MsBetween(t0, t1);
  times->freeze_ms = MsBetween(t1, t2);
  times->mvcc_ms = MsBetween(t2, t3);
  times->server_ms = MsBetween(t3, t4);
  times->total_s = MsBetween(t0, t4) / 1000.0;
  return stack;
}

/// Sets the server up kSetupRepeats times (tearing each down before the
/// next, so peak memory holds one store) and keeps the last.
Result<std::unique_ptr<Stack>> RepeatedSetup(const std::string& snapshot,
                                             std::vector<SetupTimes>* all) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    SetupTimes t;
    RDFA_ASSIGN_OR_RETURN(stack, Setup(snapshot, &t));
    all->push_back(t);
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Spans, recorded from the benchmark around calls into each layer. Kept in
// memory per client thread and written out when the run ends.

struct Span {
  const char* name;
  uint64_t id, parent, request;
  int64_t start_ns, end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(uint64_t thread) : next_id_(thread << 40) {}

  /// Opens a span; returns its id. Close() with the same id ends it.
  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    const int64_t now = Now();
    spans_.push_back({name, ++next_id_, parent, request, now, 0});
    return next_id_;
  }
  void Close(uint64_t id) {
    const int64_t now = Now();
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end_ns = now;
        break;
      }
    }
    bookkeeping_ns_ += Now() - now;
  }
  /// A child span of known duration placed at `start_ns` (for stage times
  /// the endpoint reports back rather than spans the bench can wrap).
  void Derived(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, double ms) {
    const int64_t len = static_cast<int64_t>(ms * 1e6);
    spans_.push_back({name, ++next_id_, parent, request, start_ns,
                      start_ns + len});
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t bookkeeping_ns() const { return bookkeeping_ns_; }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  int64_t bookkeeping_ns_ = 0;
};

/// What one traced read reports per layer.
struct LayerSample {
  double translate_us = -1;  ///< -1: the request needed no translation
  double parse_ms = 0;
  double handle_ms = 0;
  double serialize_ms = 0;
  double queued_ms = 0;
  double exec_ms = 0;
  double group_agg_ms = 0;
  double bgp_ms = 0;
  double index_build_ms = 0;
  double body_kb = 0;
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  bool executed = false;  ///< answered by execution, not from the cache
  double request_ms = 0;  ///< root span: translate through serialize
};

// ---------------------------------------------------------------------------
// Client side.

/// Outcome tally of one client thread; merged at the end of a phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;      ///< 503
  uint64_t timeouts = 0;  ///< 504
  uint64_t client_errors = 0;
  uint64_t server_errors = 0;
  uint64_t transport_errors = 0;
  uint64_t mismatches = 0;
  std::vector<double> latency_ms;  ///< successful requests
  std::vector<double> lag_ms;      ///< send time minus scheduled time
  std::vector<double> commit_ms;   ///< writer: Insert + Commit
  std::vector<double> mvcc_commit_ms;  ///< writer: MvccGraph::Commit
  std::vector<LayerSample> layers;     ///< traced phase only
  /// Answer digests by request text (texts chosen for checking).
  std::map<std::string, std::pair<uint64_t, size_t>> answers;

  void Count(int status) {
    ++attempted;
    if (status == 200) ++ok;
    else if (status == 503) ++shed;
    else if (status == 504) ++timeouts;
    else if (status < 0) ++transport_errors;
    else if (status >= 400 && status < 500) ++client_errors;
    else ++server_errors;
  }
  uint64_t failed() const { return attempted - ok + mismatches; }

  /// Records `body` as the answer to `text`; a different body for a text
  /// already seen (within one snapshot) is a mismatch.
  void Remember(const std::string& text, const std::string& body) {
    auto digest = std::make_pair(rdfa::HashQueryText(body), body.size());
    auto [it, fresh] = answers.emplace(text, digest);
    if (!fresh && it->second != digest) ++mismatches;
  }

  void Merge(Tally&& o) {
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    timeouts += o.timeouts;
    client_errors += o.client_errors;
    server_errors += o.server_errors;
    transport_errors += o.transport_errors;
    mismatches += o.mismatches;
    auto append = [](auto* into, auto& from) {
      into->insert(into->end(), from.begin(), from.end());
    };
    append(&latency_ms, o.latency_ms);
    append(&lag_ms, o.lag_ms);
    append(&commit_ms, o.commit_ms);
    append(&mvcc_commit_ms, o.mvcc_commit_ms);
    append(&layers, o.layers);
    for (auto& [text, digest] : o.answers) {
      auto [it, fresh] = answers.emplace(text, digest);
      if (!fresh && it->second != digest) ++mismatches;
    }
  }
};

/// One client's path to the server: a keep-alive HTTP connection
/// (untraced), or the server's own RequestHandler with spans (traced).
/// A failed request is counted once; the next request reconnects, and
/// nothing is retried.
class Channel {
 public:
  Channel(Stack* stack, SpanLog* spans) : stack_(stack), spans_(spans) {}

  /// Sends one query; returns the HTTP status (-1 on a transport error)
  /// and fills `body`. In traced mode `sample` gets the layer times.
  int Send(const std::string& sparql, uint64_t parent, uint64_t request,
           std::string* body, LayerSample* sample) {
    if (spans_ == nullptr) return SendHttp(sparql, body);
    return SendTraced(sparql, parent, request, body, sample);
  }

 private:
  int SendHttp(const std::string& sparql, std::string* body) {
    if (!client_.connected() &&
        !client_.Connect("127.0.0.1", stack_->server->port())) {
      return -1;
    }
    HttpClient::Response resp;
    if (!client_.Get("/sparql?query=" + rdfa::server::PercentEncode(sparql),
                     &resp)) {
      client_.Close();
      return -1;
    }
    if (!resp.keep_alive) client_.Close();
    *body = std::move(resp.body);
    return resp.status;
  }

  int SendTraced(const std::string& sparql, uint64_t parent, uint64_t request,
                 std::string* body, LayerSample* sample) {
    uint64_t span = spans_->Open("sparql.parse", parent, request);
    auto t = Clock::now();
    (void)rdfa::sparql::ParseQuery(sparql);
    sample->parse_ms = MsBetween(t, Clock::now());
    spans_->Close(span);

    EndpointRequest req;
    req.query = sparql;
    span = spans_->Open("endpoint.handle", parent, request);
    const int64_t handle_start = SpanLog::Now();
    t = Clock::now();
    EndpointResponse resp = stack_->handler->Handle(req);
    sample->handle_ms = MsBetween(t, Clock::now());
    spans_->Close(span);
    const auto& d = resp.detail;
    spans_->Derived("endpoint.queued", span, request, handle_start,
                    d.queued_ms);
    if (!d.cache_hit && resp.http_status == 200) {
      spans_->Derived("sparql.exec", span, request,
                      handle_start + static_cast<int64_t>(d.queued_ms * 1e6),
                      d.exec_ms);
    }
    sample->queued_ms = d.queued_ms;
    sample->exec_ms = d.exec_ms;
    sample->executed = !d.cache_hit && resp.http_status == 200;
    sample->group_agg_ms = d.exec_stats.group_agg_ms;
    sample->bgp_ms = d.exec_stats.bgp_ms;
    sample->index_build_ms = d.exec_stats.index_build_ms;
    for (size_t rows : d.exec_stats.rows_scanned) sample->rows_scanned += rows;
    sample->result_rows = d.table.num_rows();

    if (resp.http_status == 200) {
      span = spans_->Open("endpoint.serialize", parent, request);
      t = Clock::now();
      std::string again = RequestHandler::Serialize(d.table, ResultFormat::kJson);
      sample->serialize_ms = MsBetween(t, Clock::now());
      spans_->Close(span);
      sample->body_kb = static_cast<double>(again.size()) / 1024.0;
    }
    *body = std::move(resp.body);
    return resp.http_status;
  }

  Stack* stack_;
  SpanLog* spans_;
  HttpClient client_;
};

/// Per-thread client state for one phase.
struct Client {
  Client(Stack* stack, bool traced, uint64_t index)
      : spans(index), channel(stack, traced ? &spans : nullptr),
        traced(traced) {}

  /// Sends and tallies one request due at `due`: the text `translate`
  /// returns, timed as the translator layer, or else `*fixed_text`.
  /// `remember` asks for the answer to be kept for the correctness check.
  void Request(Clock::time_point due, uint64_t request_id,
               const std::function<std::string()>& translate,
               const std::string* fixed_text, bool remember) {
    const auto sent = Clock::now();
    tally.lag_ms.push_back(MsBetween(due, sent));
    LayerSample sample;
    uint64_t root = traced ? spans.Open("request", 0, request_id) : 0;
    std::string text;
    if (translate) {
      uint64_t span =
          traced ? spans.Open("translator.translate", root, request_id) : 0;
      const auto t = Clock::now();
      text = translate();
      sample.translate_us = MsBetween(t, Clock::now()) * 1000.0;
      if (traced) spans.Close(span);
    } else {
      text = *fixed_text;
    }
    std::string body;
    const int status = text.empty()
                           ? 400
                           : channel.Send(text, root, request_id, &body,
                                          &sample);
    const auto done = Clock::now();
    if (traced) {
      spans.Close(root);
      sample.request_ms = MsBetween(sent, done);
      tally.layers.push_back(sample);
    }
    tally.Count(status);
    if (status == 200) {
      tally.latency_ms.push_back(MsBetween(due, done));
      if (remember) tally.Remember(text, body);
    }
  }

  SpanLog spans;
  Channel channel;
  bool traced;
  Tally tally;
};

std::string TranslateOrEmpty(const std::string& hifun) {
  Result<std::string> sparql = perfbench::HifunToSparql(hifun);
  return sparql.ok() ? sparql.value() : std::string();
}

// ---------------------------------------------------------------------------
// One phase: the workload's full schedule against one server stack.

struct PhaseResult {
  Tally tally;
  double elapsed_s = 0;
  bool backlog_grew = false;
  double gen_lag_late_p50_ms = 0;
  std::vector<Span> spans;
  int64_t bookkeeping_ns = 0;
  std::vector<double> health_rtt_ms;
  std::vector<uint64_t> writer_seq;  ///< laptops the writer committed
};

/// Runs `body(thread, client)` on `threads` client threads and merges.
void RunClients(Stack* stack, bool traced, int threads,
                const std::function<void(int, Client*)>& body,
                PhaseResult* out) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < threads; ++t) {
    clients.push_back(
        std::make_unique<Client>(stack, traced, static_cast<uint64_t>(t + 1)));
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(body, t, clients[static_cast<size_t>(t)].get());
  }
  for (auto& th : pool) th.join();
  for (auto& c : clients) {
    out->spans.insert(out->spans.end(), c->spans.spans().begin(),
                      c->spans.spans().end());
    out->bookkeeping_ns += c->spans.bookkeeping_ns();
    out->tally.Merge(std::move(c->tally));
  }
}

/// Open loop: arrival i is due at t0 + i / rate; `threads` connections
/// take arrivals in order, and latency counts from the due instant.
void OpenLoop(Stack* stack, bool traced, int threads, double rate_rps,
              double seconds, Clock::time_point t0,
              const std::function<void(Client*, uint64_t,
                                       Clock::time_point)>& send,
              PhaseResult* out) {
  const uint64_t arrivals = static_cast<uint64_t>(rate_rps * seconds);
  std::atomic<uint64_t> next{0};
  std::vector<double> lag_by_arrival(arrivals, 0);
  RunClients(
      stack, traced, threads,
      [&](int, Client* c) {
        for (;;) {
          const uint64_t i = next.fetch_add(1);
          if (i >= arrivals) break;
          const auto due = After(t0, 1000.0 * static_cast<double>(i) / rate_rps);
          std::this_thread::sleep_until(due);
          lag_by_arrival[i] = MsBetween(due, Clock::now());
          send(c, i, due);
        }
      },
      out);
  std::vector<double> late(lag_by_arrival.begin() + arrivals * 3 / 4,
                           lag_by_arrival.end());
  out->gen_lag_late_p50_ms = Median(late);
  out->backlog_grew = out->gen_lag_late_p50_ms > kBacklogLimitMs;
}

/// Sends GET /healthz every kHealthProbeIntervalMs until `stop`.
void HealthProbes(Stack* stack, const std::atomic<bool>* stop,
                  std::vector<double>* rtt_ms) {
  HttpClient client;
  while (!stop->load()) {
    if (!client.connected() &&
        !client.Connect("127.0.0.1", stack->server->port())) {
      return;
    }
    HttpClient::Response resp;
    const auto t = Clock::now();
    if (client.Get("/healthz", &resp) && resp.status == 200) {
      rtt_ms->push_back(MsBetween(t, Clock::now()));
    } else {
      client.Close();
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kHealthProbeIntervalMs));
  }
}

/// The facet-sessions catalog, scripted before timing.
using Catalog = std::vector<perfbench::SessionSteps>;

PhaseResult RunPhase(Stack* stack, Workload w, uint64_t seed, double seconds,
                     bool traced, const Catalog& catalog) {
  PhaseResult out;
  std::atomic<bool> stop_probes{false};
  std::thread prober;
  if (traced) {
    prober = std::thread(HealthProbes, stack, &stop_probes, &out.health_rtt_ms);
  }
  const auto t0 = After(Clock::now(), 20);  // let every thread reach its start
  const auto end = After(t0, seconds * 1000.0);
  switch (w) {
    case Workload::kOlapDistinct:
      OpenLoop(stack, traced, kDistinctConnections, kDistinctRateRps, seconds,
               t0,
               [&](Client* c, uint64_t i, Clock::time_point due) {
                 const bool sampled =
                     rdfa::HashQueryText(std::to_string(seed) + ":" +
                                       std::to_string(i)) %
                         kDistinctSampleEvery ==
                     0;
                 c->Request(due, i,
                            [&] {
                              return TranslateOrEmpty(
                                  perfbench::DistinctHifun(seed, i));
                            },
                            nullptr, sampled);
               },
               &out);
      break;
    case Workload::kFacetSessions:
      RunClients(
          stack, traced, kAnalysts,
          [&](int a, Client* c) {
            auto last = t0;
            uint64_t click = 0;
            for (uint64_t n = 0;; ++n) {
              const auto& s =
                  catalog[static_cast<size_t>(perfbench::SessionKind(seed, a, n))];
              for (int step = 0; step < 3; ++step, ++click) {
                const auto due = After(last, perfbench::ThinkMs(seed, a, click));
                if (due >= end) return;
                std::this_thread::sleep_until(due);
                const uint64_t id = (static_cast<uint64_t>(a) << 32) | click;
                if (step == 2) {
                  c->Request(due, id,
                             [&] {
                               auto sparql = rdfa::translator::TranslateToSparql(
                                   s.analytic);
                               return sparql.ok() ? sparql.value()
                                                  : std::string();
                             },
                             nullptr, true);
                } else {
                  c->Request(due, id, nullptr,
                             step == 0 ? &s.class_click : &s.filter_click,
                             true);
                }
                last = Clock::now();
              }
            }
          },
          &out);
      break;
    case Workload::kOlapRw: {
      const auto& suite = perfbench::FixedSuiteHifun();
      SpanLog writer_spans(0);
      Tally writes;
      std::vector<uint64_t> committed;
      std::thread writer([&] {
        for (uint64_t j = 0;; ++j) {
          const auto due =
              After(t0, kCommitIntervalMs * static_cast<double>(j + 1));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
          const uint64_t span =
              traced ? writer_spans.Open("rdf.commit", 0, j) : 0;
          const auto t = Clock::now();
          for (const auto& tr : perfbench::WriterLaptop(seed, j)) {
            stack->mvcc->Insert(tr.s, tr.p, tr.o);
          }
          const auto c0 = Clock::now();
          Result<uint64_t> epoch = stack->mvcc->Commit();
          const auto c1 = Clock::now();
          if (traced) writer_spans.Close(span);
          if (!epoch.ok()) {
            ++writes.mismatches;
            continue;
          }
          writes.commit_ms.push_back(MsBetween(t, c1));
          writes.mvcc_commit_ms.push_back(MsBetween(c0, c1));
          committed.push_back(j);
        }
      });
      OpenLoop(stack, traced, kRwReaders, kRwReadRateRps, seconds, t0,
               [&](Client* c, uint64_t i, Clock::time_point due) {
                 c->Request(due, i,
                            [&] {
                              return TranslateOrEmpty(suite[i % suite.size()]);
                            },
                            nullptr, false);
               },
               &out);
      writer.join();
      out.tally.Merge(std::move(writes));
      out.spans.insert(out.spans.end(), writer_spans.spans().begin(),
                       writer_spans.spans().end());
      out.writer_seq = std::move(committed);
      break;
    }
  }
  out.elapsed_s = MsBetween(t0, Clock::now()) / 1000.0;
  stop_probes.store(true);
  if (prober.joinable()) prober.join();
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: answers against direct execution on the same snapshot.

Result<std::string> DirectAnswer(Stack* stack, const std::string& text) {
  rdfa::rdf::MvccGraph::Pin pin = stack->mvcc->Snapshot();
  RDFA_ASSIGN_OR_RETURN(rdfa::sparql::ParsedQuery parsed,
                        rdfa::sparql::ParseQuery(text));
  rdfa::sparql::Executor exec(pin.graph.get());
  exec.set_use_dp(stack->endpoint->use_dp());
  RDFA_ASSIGN_OR_RETURN(rdfa::sparql::ResultTable table, exec.Execute(parsed));
  return RequestHandler::Serialize(table, ResultFormat::kJson);
}

/// Compares every remembered answer with direct execution; returns the
/// number of mismatches (each also reported on stderr).
uint64_t CheckRemembered(Stack* stack, const Tally& tally) {
  uint64_t mismatches = 0;
  for (const auto& [text, digest] : tally.answers) {
    Result<std::string> direct = DirectAnswer(stack, text);
    if (!direct.ok() ||
        std::make_pair(rdfa::HashQueryText(direct.value()),
                       direct.value().size()) != digest) {
      ++mismatches;
      std::fprintf(stderr, "answer mismatch for query:\n%s\n", text.c_str());
    }
  }
  return mismatches;
}

/// olap-rw, after readers drained and the last commit landed: each Q1–Q10
/// answer over HTTP must equal direct execution byte for byte, and every
/// committed writer triple must be visible.
uint64_t CheckAfterWrites(Stack* stack, uint64_t seed,
                          const std::vector<uint64_t>& committed) {
  uint64_t mismatches = 0;
  HttpClient client;
  for (const std::string& hifun : perfbench::FixedSuiteHifun()) {
    const std::string text = TranslateOrEmpty(hifun);
    HttpClient::Response resp;
    Result<std::string> direct = DirectAnswer(stack, text);
    if ((!client.connected() &&
         !client.Connect("127.0.0.1", stack->server->port())) ||
        !client.Get("/sparql?query=" + rdfa::server::PercentEncode(text),
                    &resp) ||
        resp.status != 200 || !direct.ok() || resp.body != direct.value()) {
      ++mismatches;
      std::fprintf(stderr, "answer mismatch after writes: %s\n", hifun.c_str());
      client.Close();
    }
  }
  rdfa::rdf::MvccGraph::Pin pin = stack->mvcc->Snapshot();
  const auto& terms = pin.graph->terms();
  for (uint64_t j : committed) {
    for (const auto& tr : perfbench::WriterLaptop(seed, j)) {
      const auto s = terms.Find(tr.s), p = terms.Find(tr.p), o = terms.Find(tr.o);
      if (s == rdfa::rdf::kNoTermId || p == rdfa::rdf::kNoTermId ||
          o == rdfa::rdf::kNoTermId || !pin.graph->Contains(s, p, o)) {
        ++mismatches;
        std::fprintf(stderr, "committed triple of laptop %llu not visible\n",
                     static_cast<unsigned long long>(j));
      }
    }
  }
  return mismatches;
}

uint64_t Check(Stack* stack, Workload w, uint64_t seed, PhaseResult* phase) {
  const uint64_t mismatches =
      w == Workload::kOlapRw
          ? CheckAfterWrites(stack, seed, phase->writer_seq)
          : CheckRemembered(stack, phase->tally);
  phase->tally.mismatches += mismatches;
  return phase->tally.mismatches;
}

// ---------------------------------------------------------------------------
// Reporting.

class Report {
 public:
  /// A metric for the JSON line (and the human-readable report).
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("  %-34s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json_.push_back("\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                    unit + "\"}");
  }
  /// A percentile for the JSON line; it must be supported.
  void AddQuantile(const std::string& name, const Quantile& q,
                   const std::string& unit) {
    Add(name, q.value, unit, Support(q));
    if (!q.supported) unsupported_.push_back(name);
  }
  /// A percentile for the human-readable report only.
  static void Show(const std::string& name, const Quantile& q,
                   const std::string& unit) {
    if (q.supported) {
      std::printf("  %-34s %14.6f %-6s %s\n", name.c_str(), q.value,
                  unit.c_str(), Support(q).c_str());
    } else {
      std::printf("  %-34s %14s %-6s %s\n", name.c_str(), "unsupported",
                  unit.c_str(), Support(q).c_str());
    }
  }
  static std::string Support(const Quantile& q) {
    return "(n=" + std::to_string(q.n) + ", beyond=" + std::to_string(q.beyond) +
           ")";
  }

  const std::vector<std::string>& unsupported() const { return unsupported_; }

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string metrics;
    for (const auto& m : json_) metrics += (metrics.empty() ? "" : ", ") + m;
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           metrics + "}}";
  }

 private:
  std::vector<std::string> json_;
  std::vector<std::string> unsupported_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Field(const std::vector<LayerSample>& samples,
                          double LayerSample::*field,
                          bool (*keep)(const LayerSample&) = nullptr) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (keep == nullptr || keep(s)) out.push_back(s.*field);
  }
  return out;
}

void PrintTally(const char* phase, const PhaseResult& p) {
  const Tally& t = p.tally;
  std::printf("%s: %llu attempted, %llu ok, 503:%llu 504:%llu 4xx:%llu "
              "5xx:%llu transport:%llu mismatches:%llu in %.2f s\n",
              phase, static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.ok),
              static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.timeouts),
              static_cast<unsigned long long>(t.client_errors),
              static_cast<unsigned long long>(t.server_errors),
              static_cast<unsigned long long>(t.transport_errors),
              static_cast<unsigned long long>(t.mismatches), p.elapsed_s);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

// ---------------------------------------------------------------------------

struct Args {
  bool prepare = false;
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  std::string snapshot;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (a.rfind(prefix, 0) != 0) return false;
      *out = a.substr(prefix.size());
      return true;
    };
    std::string v;
    if (a == "--prepare") args->prepare = true;
    else if (value("--workload", &v)) args->workload = v;
    else if (value("--seed", &v)) args->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (value("--seconds", &v)) args->seconds = std::strtod(v.c_str(), nullptr);
    else if (value("--trace", &v)) args->trace = std::atoi(v.c_str());
    else if (value("--snapshot", &v)) args->snapshot = v;
    else if (value("--out-dir", &v)) args->out_dir = v;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return !args->snapshot.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Prepare(const Args& args) {
  rdfa::rdf::Graph graph;
  rdfa::workload::GenerateProductKg(&graph, perfbench::KgOptions(args.seed));
  rdfa::rdf::MaterializeRdfsClosure(&graph);
  Status saved = rdfa::rdf::SaveBinaryFile(graph, args.snapshot);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("product KG: seed %llu, %zu laptops, %zu triples -> %s\n",
              static_cast<unsigned long long>(args.seed), perfbench::kLaptops,
              graph.size(), args.snapshot.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loop_bench --prepare --seed=N --snapshot=PATH\n"
                 "       loop_bench --workload=olap-distinct|facet-sessions|"
                 "olap-rw --seed=N --seconds=S --trace=0|1 --snapshot=PATH "
                 "[--out-dir=DIR]\n");
    return 2;
  }
  if (args.prepare) return Prepare(args);
  Workload w;
  if (args.workload == "olap-distinct") w = Workload::kOlapDistinct;
  else if (args.workload == "facet-sessions") w = Workload::kFacetSessions;
  else if (args.workload == "olap-rw") w = Workload::kOlapRw;
  else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  // A traced run splits its time between the HTTP run and the replay, so
  // it takes as long as an untraced one.
  const double phase_seconds = traced ? args.seconds / 2 : args.seconds;

  std::vector<SetupTimes> setups;
  Result<std::unique_ptr<Stack>> built = RepeatedSetup(args.snapshot, &setups);
  if (!built.ok()) {
    std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Stack> stack = std::move(built).value();

  // Facet sessions are scripted before any timing, by driving the
  // interaction model over the served snapshot.
  Catalog catalog;
  if (w == Workload::kFacetSessions) {
    rdfa::rdf::MvccGraph::Pin pin = stack->mvcc->Snapshot();
    for (int k = 0; k < perfbench::kSessionKinds; ++k) {
      auto steps = perfbench::DriveSession(
          pin.graph.get(), perfbench::CatalogScript(args.seed, k));
      if (!steps.ok()) {
        std::fprintf(stderr, "session %d: %s\n", k,
                     steps.status().ToString().c_str());
        return 1;
      }
      catalog.push_back(std::move(steps).value());
    }
  }

  std::printf("== loop_bench %s, seed %llu, %.1f s, trace %d ==\n",
              WorkloadName(w), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  PhaseResult untraced =
      RunPhase(stack.get(), w, args.seed, phase_seconds, false, catalog);
  const auto server_counters = stack->server->counters();
  Check(stack.get(), w, args.seed, &untraced);
  PrintTally("untraced", untraced);
  const Quantile lat50 = QuantileOf(untraced.tally.latency_ms, 0.50);
  const Quantile lat99 = QuantileOf(untraced.tally.latency_ms, 0.99);
  const Quantile lag99 = QuantileOf(untraced.tally.lag_ms, 0.99);
  if (untraced.backlog_grew) {
    std::fprintf(stderr,
                 "invalid run: generator lag %.1f ms over the last quarter of "
                 "arrivals; the backlog kept growing\n",
                 untraced.gen_lag_late_p50_ms);
    return 1;
  }

  std::vector<double> setup_s, load_ms, freeze_ms, mvcc_ms, server_ms;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s);
    load_ms.push_back(t.load_ms);
    freeze_ms.push_back(t.freeze_ms);
    mvcc_ms.push_back(t.mvcc_ms);
    server_ms.push_back(t.server_ms);
  }

  Report report;
  uint64_t attempted = untraced.tally.attempted;
  uint64_t failed = untraced.tally.failed();
  uint64_t mismatches = untraced.tally.mismatches;
  const double fail_share =
      static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));

  if (!traced) {
    std::printf("end-to-end metrics:\n");
    report.Add("setup_s", Median(setup_s), "s",
               "(median of " + std::to_string(setup_s.size()) + " set-ups)");
    report.AddQuantile("latency_p50_ms", lat50, "ms");
    report.AddQuantile("latency_p99_ms", lat99, "ms");
    report.Add("throughput_rps",
               static_cast<double>(untraced.tally.ok) / untraced.elapsed_s,
               "1/s");
    report.Add("rss_peak_mb", PeakRssMb(), "MB");
    std::printf("also measured (not compared run to run):\n");
    std::printf("  %-34s %14.6f\n", "fail_share", fail_share);
    Report::Show("gen_lag_p99_ms", lag99, "ms");
    if (w == Workload::kOlapRw) {
      Report::Show("commit_p50_ms", QuantileOf(untraced.tally.commit_ms, 0.5), "ms");
      Report::Show("commit_p90_ms", QuantileOf(untraced.tally.commit_ms, 0.9), "ms");
    }
  } else {
    // Replay the same schedule through the server's RequestHandler on a
    // fresh stack (cold caches, unmutated store), with spans.
    stack.reset();
    SetupTimes fresh;
    Result<std::unique_ptr<Stack>> again = Setup(args.snapshot, &fresh);
    if (!again.ok()) {
      std::fprintf(stderr, "setup: %s\n", again.status().ToString().c_str());
      return 1;
    }
    stack = std::move(again).value();
    PhaseResult t = RunPhase(stack.get(), w, args.seed, phase_seconds, true,
                             catalog);
    Check(stack.get(), w, args.seed, &t);
    PrintTally("traced", t);
    attempted += t.tally.attempted;
    failed += t.tally.failed();
    mismatches += t.tally.mismatches;

    std::vector<double> mvcc_commit = t.tally.mvcc_commit_ms;
    if (w != Workload::kOlapRw) {
      // No writer in this workload: time a few commits on the idle store.
      for (int j = 0; j < kProbeCommits; ++j) {
        for (const auto& tr : perfbench::WriterLaptop(args.seed, static_cast<uint64_t>(j))) {
          stack->mvcc->Insert(tr.s, tr.p, tr.o);
        }
        const auto c0 = Clock::now();
        if (!stack->mvcc->Commit().ok()) ++mismatches;
        mvcc_commit.push_back(MsBetween(c0, Clock::now()));
      }
    }

    const auto& L = t.tally.layers;
    auto executed = [](const LayerSample& s) { return s.executed; };
    auto translated = [](const LayerSample& s) { return s.translate_us >= 0; };
    auto grouped = [](const LayerSample& s) {
      return s.executed && s.group_agg_ms > 0;
    };
    std::vector<double> self_ms, translate_handle_ms;
    double index_build_sum = 0, scanned = 0, result_rows = 0, request_ms = 0;
    for (const auto& s : L) {
      self_ms.push_back(s.handle_ms - s.queued_ms - s.exec_ms);
      translate_handle_ms.push_back(std::max(s.translate_us, 0.0) / 1000.0 +
                                    s.handle_ms);
      request_ms += s.request_ms;
      if (!s.executed) continue;
      index_build_sum += s.index_build_ms;
      scanned += static_cast<double>(s.rows_scanned);
      result_rows += static_cast<double>(s.result_rows);
    }
    const rdfa::CacheStats answer = stack->endpoint->answer_cache_stats();
    const rdfa::CacheStats plan = stack->endpoint->plan_cache_stats();
    const rdfa::endpoint::EndpointStats estats = stack->endpoint->Stats();

    std::printf("per-layer metrics:\n");
    report.AddQuantile("translator.translate_p50_us",
                       QuantileOf(Field(L, &LayerSample::translate_us, translated), 0.5),
                       "us");
    report.AddQuantile("sparql.parse_p50_ms",
                       QuantileOf(Field(L, &LayerSample::parse_ms), 0.5), "ms");
    report.AddQuantile("sparql.exec_p50_ms",
                       QuantileOf(Field(L, &LayerSample::exec_ms, executed), 0.5),
                       "ms");
    report.AddQuantile("sparql.group_agg_p50_ms",
                       QuantileOf(Field(L, &LayerSample::group_agg_ms, grouped), 0.5),
                       "ms");
    report.AddQuantile("sparql.bgp_join_p50_ms",
                       QuantileOf(Field(L, &LayerSample::bgp_ms, executed), 0.5),
                       "ms");
    report.Add("sparql.index_build_ms_sum", index_build_sum, "ms");
    report.Add("sparql.scanned_per_result_row",
               result_rows > 0 ? scanned / result_rows : 0, "ratio",
               "(" + std::to_string(static_cast<uint64_t>(scanned)) + " / " +
                   std::to_string(static_cast<uint64_t>(result_rows)) + ")");
    report.AddQuantile("endpoint.handle_p50_ms",
                       QuantileOf(Field(L, &LayerSample::handle_ms), 0.5), "ms");
    report.AddQuantile("endpoint.handle_self_p50_ms", QuantileOf(self_ms, 0.5),
                       "ms");
    report.Add("endpoint.answer_hit_rate", answer.HitRate(), "ratio",
               "(" + std::to_string(answer.hits) + " hits / " +
                   std::to_string(answer.hits + answer.misses) + " lookups)");
    report.Add("endpoint.plan_hit_rate", plan.HitRate(), "ratio",
               "(" + std::to_string(plan.hits) + " hits / " +
                   std::to_string(plan.hits + plan.misses) + " lookups)");
    report.Add("endpoint.cache_invalidations",
               static_cast<double>(answer.invalidations), "count");
    report.AddQuantile("endpoint.serialize_p50_ms",
                       QuantileOf(Field(L, &LayerSample::serialize_ms), 0.5), "ms");
    report.AddQuantile("endpoint.response_kb_p50",
                       QuantileOf(Field(L, &LayerSample::body_kb), 0.5), "KiB");
    report.Add("endpoint.shed", static_cast<double>(estats.shed), "count");
    report.Add("endpoint.timed_out", static_cast<double>(estats.timed_out),
               "count");
    report.AddQuantile("server.noop_rtt_p50_ms", QuantileOf(t.health_rtt_ms, 0.5),
                       "ms");
    report.Add("server.requests_served",
               static_cast<double>(server_counters.requests_served), "count");
    report.Add("server.parse_errors",
               static_cast<double>(server_counters.parse_errors), "count");
    report.AddQuantile("rdf.commit_p50_ms", QuantileOf(mvcc_commit, 0.5), "ms");
    report.Add("setup.snapshot_load_ms", Median(load_ms), "ms");
    report.Add("setup.index_freeze_ms", Median(freeze_ms), "ms");
    report.Add("setup.mvcc_open_ms", Median(mvcc_ms), "ms");
    report.Add("setup.server_start_ms", Median(server_ms), "ms");
    report.Add("trace.unattributed_p50_ms",
               lat50.value - QuantileOf(translate_handle_ms, 0.5).value, "ms");
    report.Add("trace.overhead_pct",
               request_ms > 0 ? 100.0 * static_cast<double>(t.bookkeeping_ns) /
                                    (request_ms * 1e6)
                              : 0,
               "%");
    report.Add("fail_share", fail_share, "ratio");
    std::printf("also measured (report only):\n");
    Report::Show("client.gen_lag_p99_ms", lag99, "ms");
    Report::Show("sparql.exec_p99_ms",
                 QuantileOf(Field(L, &LayerSample::exec_ms, executed), 0.99), "ms");
    Report::Show("endpoint.queued_p50_ms",
                 QuantileOf(Field(L, &LayerSample::queued_ms), 0.5), "ms");
    Report::Show("endpoint.queued_p99_ms",
                 QuantileOf(Field(L, &LayerSample::queued_ms), 0.99), "ms");
    if (w == Workload::kOlapRw) {
      Report::Show("commit_p50_ms", QuantileOf(t.tally.commit_ms, 0.5), "ms");
      Report::Show("commit_p90_ms", QuantileOf(t.tally.commit_ms, 0.9), "ms");
    }
    const std::string spans_path = args.out_dir + "/spans-" +
                                   WorkloadName(w) + "-seed" +
                                   std::to_string(args.seed) + ".jsonl";
    WriteSpans(spans_path, t.spans);
    std::printf("spans: %zu -> %s\n", t.spans.size(), spans_path.c_str());
  }

  for (const std::string& name : report.unsupported()) {
    std::fprintf(stderr, "percentile %s lacks 10 samples beyond it\n",
                 name.c_str());
  }
  const bool correct = mismatches == 0 && report.unsupported().empty();
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}
