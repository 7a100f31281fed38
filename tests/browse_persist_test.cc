// Tests for graph browsing (the paper's "plain graph browsing" mode),
// binary persistence, session recording/replay, answer-frame column
// projection and the extra chart renderers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/answer_frame.h"
#include "fs/replay.h"
#include "rdf/binary_io.h"
#include "rdf/browse.h"
#include "rdf/ntriples.h"
#include "rdf/rdfs.h"
#include "test_temp_path.h"
#include "viz/chart.h"
#include "viz/table_render.h"
#include "workload/products.h"

namespace rdfa {
namespace {

const std::string kEx = workload::kExampleNs;

// ---------------- browsing ----------------

class BrowseTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildRunningExample(&g_); }
  rdf::TermId Id(const std::string& local) {
    return g_.terms().FindIri(kEx + local);
  }
  rdf::Graph g_;
};

TEST_F(BrowseTest, CardCollectsTypesOutgoingIncoming) {
  rdf::ResourceCard card = rdf::DescribeResource(g_, Id("DELL"));
  ASSERT_EQ(card.types.size(), 1u);
  EXPECT_EQ(g_.terms().Get(card.types[0]).lexical(), kEx + "Company");
  // Outgoing: origin, founder.
  EXPECT_EQ(card.outgoing.size(), 2u);
  // Incoming: manufacturer (laptop1, laptop2).
  ASSERT_EQ(card.incoming.size(), 1u);
  EXPECT_EQ(g_.terms().Get(card.incoming[0].property).lexical(),
            kEx + "manufacturer");
  EXPECT_EQ(card.incoming[0].values.size(), 2u);
}

TEST_F(BrowseTest, RenderCardMentionsNeighbors) {
  std::string text =
      rdf::RenderResourceCard(g_, rdf::DescribeResource(g_, Id("DELL")));
  EXPECT_NE(text.find("DELL (Company)"), std::string::npos) << text;
  EXPECT_NE(text.find("-> origin: USA"), std::string::npos);
  EXPECT_NE(text.find("<- manufacturer: laptop1, laptop2"), std::string::npos);
}

TEST_F(BrowseTest, CbdCopiesSubjectTriples) {
  rdf::Graph out;
  size_t n = rdf::ConciseBoundedDescription(g_, Id("laptop1"), &out);
  EXPECT_EQ(n, g_.CountMatch(Id("laptop1"), rdf::kNoTermId, rdf::kNoTermId));
  EXPECT_EQ(out.size(), n);
}

TEST_F(BrowseTest, CbdRecursesThroughBlankNodes) {
  rdf::Graph g;
  g.Add(rdf::Term::Iri("urn:s"), rdf::Term::Iri("urn:p"),
        rdf::Term::Blank("b1"));
  g.Add(rdf::Term::Blank("b1"), rdf::Term::Iri("urn:q"),
        rdf::Term::Literal("deep"));
  g.Add(rdf::Term::Iri("urn:other"), rdf::Term::Iri("urn:p"),
        rdf::Term::Literal("unrelated"));
  rdf::Graph out;
  size_t n = rdf::ConciseBoundedDescription(
      g, g.terms().FindIri("urn:s"), &out);
  EXPECT_EQ(n, 2u);  // the blank node's triple comes along
}

// ---------------- binary persistence ----------------

TEST(BinaryIoTest, RoundTripPreservesTermsAndTriples) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::MaterializeRdfsClosure(&g);
  std::string blob = rdf::SaveBinary(g);

  rdf::Graph loaded;
  Status st = rdf::LoadBinary(blob, &loaded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(loaded.size(), g.size());
  EXPECT_EQ(loaded.terms().size(), g.terms().size());
  // Term ids are preserved exactly.
  for (size_t i = 0; i < g.terms().size(); ++i) {
    EXPECT_EQ(loaded.terms().Get(static_cast<rdf::TermId>(i)),
              g.terms().Get(static_cast<rdf::TermId>(i)));
  }
  // RDFA3 canonicalizes triple order to SPO, so compare as sets of lines
  // rather than raw serializations.
  auto sorted_lines = [](const std::string& nt) {
    std::vector<std::string> lines;
    std::istringstream in(nt);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted_lines(rdf::WriteNTriples(loaded)),
            sorted_lines(rdf::WriteNTriples(g)));
}

TEST(BinaryIoTest, RejectsGarbageAndTruncation) {
  rdf::Graph g;
  EXPECT_EQ(rdf::LoadBinary("not a snapshot", &g).code(),
            StatusCode::kParseError);

  rdf::Graph src;
  src.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:b"),
          rdf::Term::Integer(1));
  std::string blob = rdf::SaveBinary(src);
  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{7}}) {
    rdf::Graph dst;
    EXPECT_EQ(rdf::LoadBinary(std::string_view(blob).substr(0, cut), &dst)
                  .code(),
              StatusCode::kParseError)
        << "cut at " << cut;
  }
}

TEST(BinaryIoTest, RequiresEmptyGraph) {
  rdf::Graph src;
  src.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:b"),
          rdf::Term::Iri("urn:c"));
  std::string blob = rdf::SaveBinary(src);
  rdf::Graph nonempty;
  nonempty.Add(rdf::Term::Iri("urn:x"), rdf::Term::Iri("urn:y"),
               rdf::Term::Iri("urn:z"));
  EXPECT_EQ(rdf::LoadBinary(blob, &nonempty).code(),
            StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, FileRoundTrip) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  std::string path = testing_util::TestTempPath("rdfa_snapshot.bin");
  ASSERT_TRUE(rdf::SaveBinaryFile(g, path).ok());
  rdf::Graph loaded;
  ASSERT_TRUE(rdf::LoadBinaryFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), g.size());
  std::remove(path.c_str());
}

// ---------------- session recording / replay ----------------

TEST(ReplayTest, RecordSerializeParseReplay) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::MaterializeRdfsClosure(&g);

  fs::Session original(&g);
  fs::SessionRecorder recorder(&original);
  ASSERT_TRUE(recorder.ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(recorder
                  .ClickValue({{kEx + "manufacturer"}, {kEx + "origin"}},
                              rdf::Term::Iri(kEx + "USA"))
                  .ok());
  ASSERT_TRUE(recorder.ClickRange({{kEx + "USBPorts"}}, 2, std::nullopt).ok());
  ASSERT_TRUE(recorder.Back().ok());

  std::string script_text = recorder.Serialize();
  EXPECT_NE(script_text.find("class " + kEx + "Laptop"), std::string::npos);
  EXPECT_NE(script_text.find("back"), std::string::npos);

  auto parsed = fs::ParseScript(script_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 4u);

  fs::Session replayed(&g);
  ASSERT_TRUE(fs::ReplayScript(parsed.value(), &replayed).ok());
  EXPECT_EQ(replayed.current().ext, original.current().ext);
  EXPECT_EQ(replayed.depth(), original.depth());
}

TEST(ReplayTest, FailedActionIsNotRecorded) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  fs::Session s(&g);
  fs::SessionRecorder recorder(&s);
  EXPECT_FALSE(recorder.ClickClass(kEx + "NoSuchClass").ok());
  EXPECT_TRUE(recorder.script().empty());
}

TEST(ReplayTest, ScriptParseErrors) {
  EXPECT_FALSE(fs::ParseScript("frobnicate x").ok());
  EXPECT_FALSE(fs::ParseScript("value onlypath").ok());
  EXPECT_FALSE(fs::ParseScript("range p 1").ok());
  // Comments and blank lines are fine.
  auto ok = fs::ParseScript("# comment\n\nback\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 1u);
}

TEST(ReplayTest, InversePathRoundTrips) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  fs::Session s(&g);
  fs::SessionRecorder recorder(&s);
  // Companies that manufacture something: inverse property click.
  ASSERT_TRUE(recorder.ClickClass(kEx + "Company").ok());
  ASSERT_TRUE(recorder
                  .ClickValue({{kEx + "manufacturer", true}},
                              rdf::Term::Iri(kEx + "laptop1"))
                  .ok());
  auto parsed = fs::ParseScript(recorder.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_TRUE(parsed.value()[1].path[0].inverse);
}

// ---------------- answer-frame column projection ----------------

TEST(AnswerFrameProjectTest, KeepsRequestedColumnsInOrder) {
  sparql::ResultTable t({"a", "b", "c"});
  t.AddRow({rdf::Term::Integer(1), rdf::Term::Integer(2),
            rdf::Term::Integer(3)});
  analytics::AnswerFrame af(t);
  auto projected = af.ProjectColumns({"c", "a"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value().table().columns(),
            (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(projected.value().table().at(0, 0).lexical(), "3");
  EXPECT_EQ(projected.value().table().at(0, 1).lexical(), "1");
  EXPECT_EQ(af.ProjectColumns({"nope"}).status().code(),
            StatusCode::kNotFound);
}

// ---------------- extra chart renderers ----------------

TEST(ColumnChartTest, TallestColumnFull) {
  std::string chart = viz::RenderColumnChart(
      {{"alpha", 10}, {"beta", 5}}, 4);
  // The first text row contains only the tallest column's mark.
  size_t first_newline = chart.find('\n');
  std::string top = chart.substr(0, first_newline);
  EXPECT_NE(top.find('#'), std::string::npos);
  EXPECT_EQ(top.rfind('#'), top.find('#'));  // exactly one column at the top
  EXPECT_NE(chart.find("a: alpha = 10"), std::string::npos);
}

TEST(HistogramTest, BarsScaleWithCounts) {
  std::string h = viz::RenderHistogram(
      {{0, 10, 4}, {10, 20, 8}, {20, 30, 0}}, 8);
  EXPECT_NE(h.find("[0, 10) #### 4"), std::string::npos) << h;
  EXPECT_NE(h.find("[10, 20) ######## 8"), std::string::npos);
  EXPECT_NE(h.find("[20, 30)  0"), std::string::npos);
}

}  // namespace
}  // namespace rdfa
