#include "rdf/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rdf/mvcc.h"
#include "test_temp_path.h"

namespace rdfa::rdf {
namespace {

Term Iri(const std::string& s) { return Term::Iri("urn:" + s); }

std::string TempWalPath(const std::string& tag) {
  return testing_util::TestTempPath("wal_test_" + tag + ".wal");
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> recs;
  recs.push_back(WalRecord::Insert(Iri("s1"), Iri("p1"), Iri("o1")));
  recs.push_back(WalRecord::Insert(Iri("s2"), Iri("price"), Term::Integer(42)));
  recs.push_back(WalRecord::Insert(Iri("s3"), Iri("label"),
                                   Term::Literal("a \"quoted\" label")));
  recs.push_back(
      WalRecord::Remove(true, Iri("s1"), false, Term(), true, Iri("o1")));
  recs.push_back(WalRecord::Update(
      "INSERT DATA { <urn:u> <urn:p> \"text with\nnewline\" }"));
  return recs;
}

TEST(WalTest, RoundTripPreservesEveryRecordByteExactly) {
  const std::string path = TempWalPath("roundtrip");
  std::remove(path.c_str());
  const std::vector<WalRecord> recs = SampleRecords();
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    for (const WalRecord& r : recs) {
      ASSERT_TRUE(wal.value()->Append(r).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
    EXPECT_EQ(wal.value()->appended(), recs.size());
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay.value().truncated_bytes, 0u);
  ASSERT_EQ(replay.value().records.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_TRUE(replay.value().records[i] == recs[i]) << "record " << i << " differs";
  }
  std::remove(path.c_str());
}

TEST(WalTest, MissingFileReplaysEmpty) {
  const std::string path = TempWalPath("missing");
  std::remove(path.c_str());
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().clean_bytes, 0u);
}

TEST(WalTest, CorruptedPayloadStopsReplayAtLastGoodFrame) {
  const std::string path = TempWalPath("crc");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Insert(Iri("a"), Iri("p"), Iri("b")))
                    .ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Insert(Iri("c"), Iri("p"), Iri("d")))
                    .ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 10u);
  // Flip a byte in the *last* frame's payload: CRC mismatch => torn tail.
  bytes[bytes.size() - 2] ^= 0x5a;
  WriteAll(path, bytes);
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_TRUE(replay.value().records[0] ==
              WalRecord::Insert(Iri("a"), Iri("p"), Iri("b")));
  EXPECT_GT(replay.value().truncated_bytes, 0u);
  EXPECT_EQ(replay.value().clean_bytes + replay.value().truncated_bytes, bytes.size());
  std::remove(path.c_str());
}

TEST(WalTest, EveryTruncationPointReplaysACleanPrefix) {
  // Simulate a crash at every possible byte boundary: replay must never
  // fail, never decode garbage, and always yield a prefix of the records.
  const std::string path = TempWalPath("torn");
  std::remove(path.c_str());
  const std::vector<WalRecord> recs = SampleRecords();
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& r : recs) ASSERT_TRUE(wal.value()->Append(r).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  const std::string full = ReadAll(path);
  size_t prev_count = recs.size();
  for (size_t cut = full.size(); cut-- > 0;) {
    WriteAll(path, full.substr(0, cut));
    auto replay = WriteAheadLog::Replay(path);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    ASSERT_LE(replay.value().records.size(), recs.size());
    // Record count is monotone in the cut point, and each survivor matches.
    ASSERT_LE(replay.value().records.size(), prev_count) << "cut at " << cut;
    prev_count = replay.value().records.size();
    for (size_t i = 0; i < replay.value().records.size(); ++i) {
      ASSERT_TRUE(replay.value().records[i] == recs[i])
          << "cut at " << cut << ", record " << i;
    }
    ASSERT_EQ(replay.value().clean_bytes + replay.value().truncated_bytes, cut);
  }
  std::remove(path.c_str());
}

TEST(WalTest, OpenTruncatesTornTailSoAppendsNeverInterleave) {
  const std::string path = TempWalPath("reopen");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Insert(Iri("a"), Iri("p"), Iri("b")))
                    .ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  // Leave half a frame of garbage at the tail, as a crash mid-write would.
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes + std::string("\x09\x00\x00\x00garbage", 11));
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Insert(Iri("c"), Iri("p"), Iri("d")))
                    .ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_TRUE(replay.value().records[1] ==
              WalRecord::Insert(Iri("c"), Iri("p"), Iri("d")));
  EXPECT_EQ(replay.value().truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, CrcIsStableAndSensitive) {
  const char kMsg[] = "123456789";
  // Known-answer test for CRC-32/IEEE ("check" value of the catalogue).
  EXPECT_EQ(WalCrc32(kMsg, 9), 0xCBF43926u);
  EXPECT_EQ(WalCrc32(kMsg, 0), 0u);
  EXPECT_NE(WalCrc32("123456788", 9), WalCrc32(kMsg, 9));
}

TEST(WalTest, ReplayReproducesPreCrashGraphStats) {
  // The CI crash-recovery smoke in miniature: build a graph through the
  // MVCC layer with a WAL attached, remember its Stats(), "crash" (drop
  // the object without any shutdown handshake), then recover from the log
  // alone and compare.
  const std::string path = TempWalPath("stats");
  std::remove(path.c_str());
  GraphStats before;
  uint64_t committed = 0;
  {
    MvccGraph::Options opts;
    opts.wal_path = path;
    opts.wal_sync_every = 4;
    auto mvcc = MvccGraph::Open(opts);
    ASSERT_TRUE(mvcc.ok()) << mvcc.status().message();
    for (int i = 0; i < 37; ++i) {
      mvcc.value()->Insert(Iri("s" + std::to_string(i % 11)),
                      Iri("p" + std::to_string(i % 3)), Term::Integer(i));
      if (mvcc.value()->pending_ops() >= 5) {
        ASSERT_TRUE(mvcc.value()->Commit().ok());
      }
    }
    const Term victim = Iri("s1");
    mvcc.value()->Remove(&victim, nullptr, nullptr);
    auto epoch = mvcc.value()->Commit();
    ASSERT_TRUE(epoch.ok()) << epoch.status().message();
    committed = epoch.value();
    auto pin = mvcc.value()->Snapshot();
    before = pin.graph->Stats();
    ASSERT_GT(before.triples, 0u);
  }
  MvccGraph::Options opts;
  opts.wal_path = path;
  auto recovered = MvccGraph::Open(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->open_info().truncated_bytes, 0u);
  auto pin = recovered.value()->Snapshot();
  GraphStats after = pin.graph->Stats();
  EXPECT_EQ(after.triples, before.triples);
  EXPECT_EQ(after.distinct_subjects, before.distinct_subjects);
  EXPECT_EQ(after.distinct_predicates, before.distinct_predicates);
  EXPECT_EQ(after.distinct_objects, before.distinct_objects);
  EXPECT_GT(committed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfa::rdf
