#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/generators.h"

namespace kgov::graph {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest -j runs this fixture's tests concurrently.
    path_ = ::testing::TempDir() + "kgov_graph_io_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
    ASSERT_TRUE(out.good());
  }

  std::string path_;
};

TEST_F(GraphIoTest, RoundTripPreservesStructureAndWeights) {
  Rng rng(1);
  Result<WeightedDigraph> original = ErdosRenyi(50, 200, rng);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveEdgeList(*original, path_).ok());

  Result<WeightedDigraph> loaded = LoadEdgeList(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEdges(), original->NumEdges());
  for (EdgeId e = 0; e < original->NumEdges(); ++e) {
    EXPECT_EQ(loaded->edge(e).from, original->edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, original->edge(e).to);
    EXPECT_DOUBLE_EQ(loaded->edge(e).weight, original->edge(e).weight);
  }
}

TEST_F(GraphIoTest, LoadSkipsCommentsAndBlankLines) {
  WriteFile("# comment\n% konect header\n\n0 1 0.5\n1 2 0.25\n");
  Result<WeightedDigraph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_EQ(g->NumNodes(), 3u);
}

TEST_F(GraphIoTest, MissingWeightUsesDefault) {
  WriteFile("0 1\n1 0\n");
  Result<WeightedDigraph> g = LoadEdgeList(path_, 0.75);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->Weight(0), 0.75);
  EXPECT_DOUBLE_EQ(g->Weight(1), 0.75);
}

TEST_F(GraphIoTest, DuplicateEdgesKeepFirst) {
  WriteFile("0 1 0.5\n0 1 0.9\n");
  Result<WeightedDigraph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g->Weight(0), 0.5);
}

TEST_F(GraphIoTest, MalformedLineIsError) {
  WriteFile("0 1 0.5\nnot an edge\n");
  EXPECT_FALSE(LoadEdgeList(path_).ok());
}

TEST_F(GraphIoTest, NegativeNodeIdIsError) {
  WriteFile("-1 2 0.5\n");
  EXPECT_FALSE(LoadEdgeList(path_).ok());
}

TEST_F(GraphIoTest, NegativeWeightIsInvalidArgument) {
  WriteFile("0 1 -0.5\n");
  EXPECT_EQ(LoadEdgeList(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, NonFiniteWeightIsInvalidArgument) {
  // "nan"/"inf" are not valid stream doubles, so they surface as
  // unparseable; either way the loader must refuse them.
  WriteFile("0 1 nan\n");
  EXPECT_EQ(LoadEdgeList(path_).status().code(),
            StatusCode::kInvalidArgument);
  WriteFile("0 1 inf\n");
  EXPECT_EQ(LoadEdgeList(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, GarbageWeightColumnIsInvalidArgument) {
  WriteFile("0 1 heavy\n");
  Status status = LoadEdgeList(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("weight"), std::string::npos);
}

TEST_F(GraphIoTest, OutOfRangeNodeIdIsInvalidArgumentWithLineNumber) {
  // 4294967295 == kInvalidNode and anything beyond would truncate in the
  // narrowing cast and alias an unrelated node; the loader must refuse.
  WriteFile("0 1 0.5\n4294967295 2 0.5\n");
  Status status = LoadEdgeList(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
  EXPECT_NE(status.message().find(":2"), std::string::npos);

  WriteFile("99999999999999999 0 0.5\n");
  EXPECT_EQ(LoadEdgeList(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, OverflowingWeightIsInvalidArgument) {
  // 1e400 parses to +inf (or fails) depending on the stream; either path
  // must end in a line-numbered InvalidArgument, never a quiet +inf edge.
  WriteFile("0 1 1e400\n");
  Status status = LoadEdgeList(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(":1"), std::string::npos);
}

TEST_F(GraphIoTest, TrailingGarbageIsInvalidArgumentWithLineNumber) {
  WriteFile("0 1 0.5 extra\n");
  Status status = LoadEdgeList(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("trailing garbage"), std::string::npos);
  EXPECT_NE(status.message().find(":1"), std::string::npos);
  // A fourth numeric column is garbage too - edge lists are three columns.
  WriteFile("0 1 0.5 0.7\n");
  EXPECT_EQ(LoadEdgeList(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, MalformedLineReportsItsLineNumber) {
  WriteFile("# header\n0 1 0.5\n\nnot an edge\n");
  Status status = LoadEdgeList(path_).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":4"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  Result<WeightedDigraph> g = LoadEdgeList("/nonexistent/dir/graph.txt");
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, SaveToUnwritablePathIsIoError) {
  WeightedDigraph g(1);
  EXPECT_EQ(SaveEdgeList(g, "/nonexistent/dir/out.txt").code(),
            StatusCode::kIoError);
}

TEST_F(GraphIoTest, EmptyFileYieldsEmptyGraph) {
  WriteFile("# nothing here\n");
  Result<WeightedDigraph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 0u);
  EXPECT_EQ(g->NumEdges(), 0u);
}

TEST_F(GraphIoTest, NodeIdsTakenVerbatim) {
  WriteFile("5 9 0.1\n");
  Result<WeightedDigraph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 10u);  // sized to max id + 1
  EXPECT_TRUE(g->FindEdge(5, 9).has_value());
}

}  // namespace
}  // namespace kgov::graph
