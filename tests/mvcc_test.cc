#include "rdf/mvcc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/footprint.h"
#include "common/metrics.h"
#include "rdf/graph.h"
#include "sparql/executor.h"

namespace rdfa::rdf {
namespace {

Term Iri(const std::string& s) { return Term::Iri("urn:" + s); }

// Renders every triple of `g` as a sorted list of N-Triples-ish lines, the
// canonical form the differential tests compare byte-for-byte. Term ids are
// not comparable across graphs (interning order differs), the rendered
// terms are.
std::vector<std::string> CanonicalTriples(const Graph& g) {
  std::vector<std::string> out;
  out.reserve(g.size());
  for (const TripleId& t : g.triples()) {
    out.push_back(g.terms().Get(t.s).ToNTriples() + " " +
                  g.terms().Get(t.p).ToNTriples() + " " +
                  g.terms().Get(t.o).ToNTriples());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MvccTest, SnapshotStaysImmutableAcrossCommits) {
  MvccGraph mvcc;
  mvcc.Insert(Iri("s1"), Iri("p"), Iri("o1"));
  ASSERT_TRUE(mvcc.Commit().ok());
  MvccGraph::Pin pin = mvcc.Snapshot();
  ASSERT_EQ(pin.graph->size(), 1u);
  const uint64_t epoch_before = pin.epoch;

  mvcc.Insert(Iri("s2"), Iri("p"), Iri("o2"));
  auto epoch = mvcc.Commit();
  ASSERT_TRUE(epoch.ok());
  EXPECT_GT(epoch.value(), epoch_before);

  // The old pin still sees exactly the old world...
  EXPECT_EQ(pin.graph->size(), 1u);
  EXPECT_EQ(pin.epoch, epoch_before);
  // ...while a fresh pin sees the new one.
  MvccGraph::Pin head = mvcc.Snapshot();
  EXPECT_EQ(head.graph->size(), 2u);
  EXPECT_EQ(head.epoch, epoch.value());
  // Distinct versions are distinct objects; the pin keeps its alive.
  EXPECT_NE(pin.graph.get(), head.graph.get());
}

TEST(MvccTest, CommitWithNothingPendingDoesNotPublishANewVersion) {
  MvccGraph mvcc;
  mvcc.Insert(Iri("s"), Iri("p"), Iri("o"));
  ASSERT_TRUE(mvcc.Commit().ok());
  const uint64_t epoch = mvcc.Epoch();
  const Graph* version = mvcc.Snapshot().graph.get();
  auto again = mvcc.Commit();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), epoch);
  EXPECT_EQ(mvcc.Snapshot().graph.get(), version);
}

TEST(MvccTest, RemoveWildcardsAndInsertsMergeInOrder) {
  auto base = std::make_unique<Graph>();
  base->Add(Iri("a"), Iri("p"), Iri("x"));
  base->Add(Iri("a"), Iri("q"), Iri("y"));
  base->Add(Iri("b"), Iri("p"), Iri("x"));
  MvccGraph mvcc(std::move(base));

  const Term subj = Iri("a");
  mvcc.Remove(&subj, nullptr, nullptr);  // drop both urn:a triples
  mvcc.Insert(Iri("a"), Iri("p"), Iri("z"));
  ASSERT_TRUE(mvcc.Commit().ok());

  MvccGraph::Pin pin = mvcc.Snapshot();
  std::vector<std::string> got = CanonicalTriples(*pin.graph);
  Graph want;
  want.Add(Iri("b"), Iri("p"), Iri("x"));
  want.Add(Iri("a"), Iri("p"), Iri("z"));
  EXPECT_EQ(got, CanonicalTriples(want));
}

TEST(MvccTest, BufferUpdateWithoutEngineIsUnsupported) {
  MvccGraph mvcc;
  Status s = mvcc.BufferUpdate("INSERT DATA { <urn:a> <urn:p> <urn:b> }");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
}

TEST(MvccTest, PerPredicateStampsSurviveCommitsOfOtherPredicates) {
  MvccGraph mvcc;
  mvcc.Insert(Iri("s"), Iri("p1"), Iri("o"));
  mvcc.Insert(Iri("s"), Iri("p2"), Iri("o"));
  ASSERT_TRUE(mvcc.Commit().ok());
  CacheFootprint fp1 = CacheFootprint::Of({"urn:p1"});
  MvccGraph::Pin pin = mvcc.Snapshot();
  const uint64_t stamp1 = pin.graph->FootprintStamp(fp1);

  mvcc.Insert(Iri("s2"), Iri("p2"), Iri("o2"));
  ASSERT_TRUE(mvcc.Commit().ok());
  MvccGraph::Pin head = mvcc.Snapshot();
  // The p1 epoch is identical across versions — a cache entry filled against
  // the old snapshot revalidates against the new head without a refill.
  EXPECT_EQ(head.graph->FootprintStamp(fp1), stamp1);
  // But the global generation (wildcard footprint) moved.
  EXPECT_GT(head.graph->FootprintStamp(CacheFootprint::Wildcard()),
            pin.graph->FootprintStamp(CacheFootprint::Wildcard()));
}

// One deterministic pseudo-random op script, two executions: threaded
// through the MVCC layer with concurrent readers hammering snapshots, and
// serially against a plain Graph. The final worlds must render
// byte-identically, and no reader may ever observe a half-applied commit.
struct ScriptOp {
  bool insert = true;
  std::string s, p, o;  // for removes, empty = wildcard lane
};

std::vector<ScriptOp> MakeScript(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<ScriptOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ScriptOp op;
    op.insert = rng() % 4 != 0;  // 3:1 insert:remove
    op.s = "s" + std::to_string(rng() % 23);
    op.p = "p" + std::to_string(rng() % 5);
    op.o = "o" + std::to_string(rng() % 17);
    if (!op.insert) {
      // Randomly blank out lanes to exercise wildcard removes.
      if (rng() % 3 == 0) op.s.clear();
      if (rng() % 3 == 0) op.p.clear();
      if (rng() % 2 == 0) op.o.clear();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void RunDifferential(uint64_t seed, int reader_threads) {
  const std::vector<ScriptOp> script = MakeScript(seed, 400);
  MvccGraph mvcc;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);

  // Sizes committed so far, indexed by epoch: readers must only ever see
  // one of these worlds, never a partial merge.
  std::vector<uint64_t> committed_sizes(1, 0);
  std::mutex sizes_mu;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(reader_threads));
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&mvcc, &committed_sizes, &sizes_mu, &done,
                          &violations] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        MvccGraph::Pin pin = mvcc.Snapshot();
        // Epochs are monotone per reader.
        if (pin.epoch < last_epoch) violations.fetch_add(1);
        last_epoch = pin.epoch;
        const uint64_t size = pin.graph->size();
        // Walking the snapshot must agree with its own size — the version
        // is frozen, no writer can be mutating it underneath us.
        uint64_t counted = 0;
        pin.graph->ForEachMatch(kNoTermId, kNoTermId, kNoTermId,
                                [&counted](const TripleId&) { ++counted; });
        if (counted != size) violations.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(sizes_mu);
          if (pin.epoch >= committed_sizes.size() ||
              committed_sizes[pin.epoch] != size) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }

  for (size_t i = 0; i < script.size(); ++i) {
    const ScriptOp& op = script[i];
    if (op.insert) {
      mvcc.Insert(Iri(op.s), Iri(op.p), Iri(op.o));
    } else {
      Term s = Iri(op.s), p = Iri(op.p), o = Iri(op.o);
      mvcc.Remove(op.s.empty() ? nullptr : &s, op.p.empty() ? nullptr : &p,
                  op.o.empty() ? nullptr : &o);
    }
    if (rng() % 7 == 0 || i + 1 == script.size()) {
      // Commit and record the new epoch's size under the same lock readers
      // validate with, so a reader that pins the new version blocks on
      // sizes_mu until its expected size is recorded.
      std::lock_guard<std::mutex> lock(sizes_mu);
      auto epoch = mvcc.Commit();
      ASSERT_TRUE(epoch.ok());
      MvccGraph::Pin head = mvcc.Snapshot();
      committed_sizes.resize(
          std::max<size_t>(committed_sizes.size(), epoch.value() + 1), 0);
      committed_sizes[epoch.value()] = head.graph->size();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0)
      << "seed " << seed << ", " << reader_threads << " readers";

  // Serial replay of the identical script. A bound remove lane that names a
  // never-interned term is a no-op, mirroring MvccGraph::ApplyRecord — a
  // Find miss must not silently widen into a wildcard.
  Graph serial;
  for (const ScriptOp& op : script) {
    if (op.insert) {
      serial.Add(Iri(op.s), Iri(op.p), Iri(op.o));
      continue;
    }
    TermId s = kNoTermId, p = kNoTermId, o = kNoTermId;
    bool resolvable = true;
    if (!op.s.empty()) {
      s = serial.terms().Find(Iri(op.s));
      resolvable &= s != kNoTermId;
    }
    if (!op.p.empty()) {
      p = serial.terms().Find(Iri(op.p));
      resolvable &= p != kNoTermId;
    }
    if (!op.o.empty()) {
      o = serial.terms().Find(Iri(op.o));
      resolvable &= o != kNoTermId;
    }
    if (resolvable) serial.RemoveMatching(s, p, o);
  }
  MvccGraph::Pin head = mvcc.Snapshot();
  EXPECT_EQ(CanonicalTriples(*head.graph), CanonicalTriples(serial))
      << "seed " << seed << ": concurrent world diverged from serial replay";
}

TEST(MvccDifferentialTest, ConcurrentInterleavingsMatchSerialReplay) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    for (int threads : {1, 4}) {
      RunDifferential(seed, threads);
    }
  }
}

// Commits layer deltas over one shared base: after N small commits the head
// version's base is still the epoch-0 graph, whose indexes were never
// rebuilt, and every version's delta holds exactly its own changes.
TEST(MvccTest, CommitsShareTheBaseAndNeverRebuildIt) {
  auto base = std::make_unique<Graph>();
  for (int i = 0; i < 500; ++i) {
    base->Add(Iri("s" + std::to_string(i % 50)),
              Iri("p" + std::to_string(i % 5)), Iri("o" + std::to_string(i)));
  }
  const Graph* base_ptr = base.get();
  MvccGraph mvcc(std::move(base));
  base_ptr->FreezeSecondaries();
  const uint64_t index_gen = base_ptr->index_generation();
  for (int c = 0; c < 20; ++c) {
    mvcc.Insert(Iri("new" + std::to_string(c)), Iri("p0"), Iri("x"));
    if (c % 4 == 3) {
      const Term s = Iri("s" + std::to_string(c));
      mvcc.Remove(&s, nullptr, nullptr);
    }
    ASSERT_TRUE(mvcc.Commit().ok());
    MvccGraph::Pin pin = mvcc.Snapshot();
    ASSERT_EQ(pin.graph->delta_base(), base_ptr) << "commit " << c;
  }
  EXPECT_EQ(base_ptr->index_generation(), index_gen);
  EXPECT_TRUE(base_ptr->secondaries_built());
  MvccGraph::Pin head = mvcc.Snapshot();
  // 20 inserts plus 5 subjects x 10 triples tombstoned.
  EXPECT_EQ(head.graph->delta_size(), 20u + 5u * 10u);
  EXPECT_EQ(head.graph->size(), 500u + 20u - 50u);
}

// /metrics shows the head's delta size and counts compactions.
TEST(MvccTest, DeltaGaugeAndCompactionCounter) {
  auto base = std::make_unique<Graph>();
  for (int i = 0; i < 100; ++i) {
    base->Add(Iri("m" + std::to_string(i)), Iri("p"), Iri("o"));
  }
  MvccGraph mvcc(std::move(base));
  MetricsRegistry& m = MetricsRegistry::Global();
  Gauge& delta = m.GetGauge("rdfa_mvcc_delta_triples", "");
  Counter& compactions = m.GetCounter("rdfa_mvcc_compactions_total", "");
  const uint64_t compactions_before = compactions.Value();
  mvcc.Insert(Iri("x"), Iri("p"), Iri("o"));
  ASSERT_TRUE(mvcc.Commit().ok());
  EXPECT_EQ(delta.Value(), 1.0);
  EXPECT_EQ(compactions.Value(), compactions_before);
  for (int i = 0; i < 300; ++i) {
    mvcc.Insert(Iri("bulk" + std::to_string(i)), Iri("p"), Iri("o"));
  }
  ASSERT_TRUE(mvcc.Commit().ok());
  EXPECT_EQ(delta.Value(), 0.0);
  EXPECT_EQ(compactions.Value(), compactions_before + 1);
  EXPECT_EQ(mvcc.Snapshot().graph->delta_base(), nullptr);
}

// The delta-version differential: a base large enough that commits stay
// deltas for a while, scripts that remove committed triples, re-insert
// tombstoned ones, remove by wildcard, run SPARQL updates through update_fn
// and force a compaction with one oversized commit — threaded through MVCC
// with concurrent readers, then replayed serially against a plain Graph.
Status ApplyUpdate(Graph* g, const std::string& text) {
  auto applied = sparql::ExecuteUpdateString(g, text);
  return applied.ok() ? Status::OK() : applied.status();
}

void BuildDeltaBase(Graph* g) {
  for (int i = 0; i < 900; ++i) {
    g->Add(Iri("s" + std::to_string(i % 60)), Iri("p" + std::to_string(i % 4)),
           Iri("o" + std::to_string(i % 37)));
  }
}

void RunDeltaDifferential(uint64_t seed, int reader_threads) {
  std::mt19937_64 rng(seed);
  auto base = std::make_unique<Graph>();
  BuildDeltaBase(base.get());
  MvccGraph::Options opts;
  opts.update_fn = ApplyUpdate;
  MvccGraph mvcc(std::move(base), opts);
  Graph serial;
  BuildDeltaBase(&serial);

  std::vector<uint64_t> committed_sizes(1, serial.size());
  std::mutex sizes_mu;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        MvccGraph::Pin pin = mvcc.Snapshot();
        uint64_t counted = 0;
        pin.graph->ForEachMatch(kNoTermId, kNoTermId, kNoTermId,
                                [&counted](const TripleId&) { ++counted; });
        if (counted != pin.graph->size()) violations.fetch_add(1);
        std::lock_guard<std::mutex> lock(sizes_mu);
        if (pin.epoch >= committed_sizes.size() ||
            committed_sizes[pin.epoch] != counted) {
          violations.fetch_add(1);
        }
      }
    });
  }

  // Every op goes to both worlds. Removes resolve terms like ApplyRecord:
  // an unknown bound lane matches nothing.
  std::vector<std::array<std::string, 3>> removed;
  auto insert = [&](const std::string& s, const std::string& p,
                    const std::string& o) {
    mvcc.Insert(Iri(s), Iri(p), Iri(o));
    serial.Add(Iri(s), Iri(p), Iri(o));
  };
  auto remove = [&](const std::string& s, const std::string& p,
                    const std::string& o) {
    Term ts = Iri(s), tp = Iri(p), to = Iri(o);
    mvcc.Remove(s.empty() ? nullptr : &ts, p.empty() ? nullptr : &tp,
                o.empty() ? nullptr : &to);
    TermId ids[3] = {kNoTermId, kNoTermId, kNoTermId};
    const std::string* lanes[3] = {&s, &p, &o};
    for (int i = 0; i < 3; ++i) {
      if (lanes[i]->empty()) continue;
      ids[i] = serial.terms().Find(Iri(*lanes[i]));
      if (ids[i] == kNoTermId) return;
    }
    serial.RemoveMatching(ids[0], ids[1], ids[2]);
  };
  auto update = [&](const std::string& text) {
    ASSERT_TRUE(mvcc.BufferUpdate(text).ok());
    (void)ApplyUpdate(&serial, text);
  };
  auto commit = [&] {
    std::lock_guard<std::mutex> lock(sizes_mu);
    auto epoch = mvcc.Commit();
    ASSERT_TRUE(epoch.ok());
    committed_sizes.resize(
        std::max<size_t>(committed_sizes.size(), epoch.value() + 1), 0);
    committed_sizes[epoch.value()] = mvcc.Snapshot().graph->size();
  };

  bool compacted = false;
  for (int step = 0; step < 240; ++step) {
    const std::string s = "s" + std::to_string(rng() % 70);
    const std::string p = "p" + std::to_string(rng() % 5);
    const std::string o = "o" + std::to_string(rng() % 40);
    switch (rng() % 8) {
      case 0:
      case 1:
        insert(s, p, o);
        break;
      case 2:  // exact removal of a (likely committed) triple
        remove(s, p, o);
        removed.push_back({s, p, o});
        break;
      case 3:  // re-insert a tombstoned triple
        if (!removed.empty()) {
          const auto& t = removed[rng() % removed.size()];
          insert(t[0], t[1], t[2]);
        }
        break;
      case 4:  // wildcard removes
        remove(rng() % 2 ? s : "", rng() % 2 ? p : "", rng() % 3 ? "" : o);
        break;
      case 5:
        update("INSERT DATA { <urn:" + s + "> <urn:" + p + "> <urn:" + o +
               "> . <urn:" + s + "> <urn:pu> \"" + std::to_string(step) +
               "\" }");
        break;
      case 6:
        update("DELETE WHERE { <urn:" + s + "> <urn:" + p + "> ?o }");
        break;
      default:
        break;
    }
    if (step == 150) {
      // Far past the delta's fraction of the base: this commit compacts.
      for (int i = 0; i < 400; ++i) {
        insert("bulk" + std::to_string(i), "p" + std::to_string(i % 3),
               "o" + std::to_string(i % 11));
      }
      commit();
      compacted = mvcc.Snapshot().graph->delta_base() == nullptr;
    } else if (rng() % 5 == 0) {
      commit();
    }
  }
  commit();
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_TRUE(compacted) << "the bulk commit did not compact";
  EXPECT_EQ(violations.load(), 0)
      << "seed " << seed << ", " << reader_threads << " readers";
  MvccGraph::Pin head = mvcc.Snapshot();
  EXPECT_NE(head.graph->delta_base(), nullptr);  // layered again after it
  EXPECT_EQ(CanonicalTriples(*head.graph), CanonicalTriples(serial))
      << "seed " << seed;
  EXPECT_EQ(head.graph->Generation(), serial.Generation()) << "seed " << seed;
}

TEST(MvccDifferentialTest, DeltaScriptsMatchSerialReplay) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    for (int threads : {1, 4}) {
      RunDeltaDifferential(seed, threads);
    }
  }
}

}  // namespace
}  // namespace rdfa::rdf
