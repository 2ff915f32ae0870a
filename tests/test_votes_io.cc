#include "votes/votes_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace kgov::votes {
namespace {

class VotesIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest -j runs this fixture's tests concurrently.
    path_ = ::testing::TempDir() + "kgov_votes_io_test_" +
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

Vote MakeVote(uint32_t id) {
  Vote vote;
  vote.id = id;
  vote.weight = 2.5;
  vote.query.links.emplace_back(3, 0.25);
  vote.query.links.emplace_back(7, 0.75);
  vote.answer_list = {10, 11, 12};
  vote.best_answer = 11;
  return vote;
}

TEST_F(VotesIoTest, RoundTrip) {
  std::vector<Vote> original{MakeVote(0), MakeVote(5)};
  original[1].weight = 1.0;
  original[1].best_answer = 10;
  ASSERT_TRUE(SaveVotes(original, path_).ok());

  Result<std::vector<Vote>> loaded = LoadVotes(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  const Vote& v = (*loaded)[0];
  EXPECT_EQ(v.id, 0u);
  EXPECT_DOUBLE_EQ(v.weight, 2.5);
  EXPECT_EQ(v.best_answer, 11u);
  EXPECT_EQ(v.answer_list, (std::vector<graph::NodeId>{10, 11, 12}));
  ASSERT_EQ(v.query.links.size(), 2u);
  EXPECT_EQ(v.query.links[0].first, 3u);
  EXPECT_DOUBLE_EQ(v.query.links[0].second, 0.25);
  EXPECT_TRUE(v.IsWellFormed());
  EXPECT_EQ((*loaded)[1].best_answer, 10u);
}

TEST_F(VotesIoTest, PositivityPreserved) {
  Vote positive = MakeVote(1);
  positive.best_answer = 10;  // top of the list
  ASSERT_TRUE(SaveVotes({positive}, path_).ok());
  Result<std::vector<Vote>> loaded = LoadVotes(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)[0].IsPositive());
}

TEST_F(VotesIoTest, EmptySetRoundTrips) {
  ASSERT_TRUE(SaveVotes({}, path_).ok());
  Result<std::vector<Vote>> loaded = LoadVotes(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(VotesIoTest, BadTagRejected) {
  WriteFile("W 0 1.0 B 1 A 1 2 S 0:1\n");
  EXPECT_FALSE(LoadVotes(path_).ok());
}

TEST_F(VotesIoTest, NonPositiveWeightRejected) {
  WriteFile("V 0 0.0 B 1 A 1 2 S 0:1\n");
  EXPECT_EQ(LoadVotes(path_).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VotesIoTest, NegativeWeightIsInvalidArgument) {
  WriteFile("V 0 -2.5 B 1 A 1 2 S 0:1\n");
  EXPECT_EQ(LoadVotes(path_).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VotesIoTest, GarbageAnswerIdIsInvalidArgumentNotCrash) {
  WriteFile("V 0 1.0 B 1 A 1 oops S 0:1\n");
  Status status = LoadVotes(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad answer id"), std::string::npos);
}

TEST_F(VotesIoTest, NegativeAnswerIdRejected) {
  WriteFile("V 0 1.0 B 1 A 1 -7 S 0:1\n");
  EXPECT_EQ(LoadVotes(path_).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VotesIoTest, GarbageSeedLinkIsInvalidArgument) {
  WriteFile("V 0 1.0 B 1 A 1 2 S a:b\n");
  Status status = LoadVotes(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad seed link"), std::string::npos);
}

TEST_F(VotesIoTest, NonFiniteSeedWeightRejected) {
  WriteFile("V 0 1.0 B 1 A 1 2 S 0:nan\n");
  EXPECT_EQ(LoadVotes(path_).status().code(), StatusCode::kInvalidArgument);
  WriteFile("V 0 1.0 B 1 A 1 2 S 0:inf\n");
  EXPECT_EQ(LoadVotes(path_).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VotesIoTest, MalformedSeedRejected) {
  WriteFile("V 0 1.0 B 1 A 1 2 S 0\n");
  EXPECT_FALSE(LoadVotes(path_).ok());
}

TEST_F(VotesIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadVotes("/nonexistent/votes.txt").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace kgov::votes
