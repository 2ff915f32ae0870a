#include "qa/corpus_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace kgov::qa {
namespace {

class CorpusIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest -j runs this fixture's tests concurrently.
    path_ = ::testing::TempDir() + "kgov_corpus_io_test_" +
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

Corpus MakeCorpus() {
  Corpus corpus;
  corpus.num_entities = 5;
  corpus.entity_names = {"alpha", "beta", "", "delta", ""};
  corpus.documents.resize(2);
  corpus.documents[0].topic = 0;
  corpus.documents[0].mentions = {{0, 2}, {1, 1}};
  corpus.documents[0].query_mentions = {{3, 1}};
  corpus.documents[1].topic = 1;
  corpus.documents[1].mentions = {{4, 3}};
  return corpus;
}

TEST_F(CorpusIoTest, CorpusRoundTrip) {
  Corpus original = MakeCorpus();
  ASSERT_TRUE(SaveCorpus(original, path_).ok());
  Result<Corpus> loaded = LoadCorpus(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entities, 5u);
  EXPECT_EQ(loaded->entity_names[0], "alpha");
  EXPECT_EQ(loaded->entity_names[2], "");
  ASSERT_EQ(loaded->documents.size(), 2u);
  EXPECT_EQ(loaded->documents[0].topic, 0);
  ASSERT_EQ(loaded->documents[0].mentions.size(), 2u);
  EXPECT_EQ(loaded->documents[0].mentions[0].entity, 0u);
  EXPECT_EQ(loaded->documents[0].mentions[0].count, 2);
  ASSERT_EQ(loaded->documents[0].query_mentions.size(), 1u);
  EXPECT_EQ(loaded->documents[0].query_mentions[0].entity, 3u);
  EXPECT_EQ(loaded->documents[1].mentions[0].count, 3);
}

TEST_F(CorpusIoTest, MissingHeaderRejected) {
  WriteFile("D 0 1:1\n");
  EXPECT_FALSE(LoadCorpus(path_).ok());
}

TEST_F(CorpusIoTest, OutOfRangeEntityRejected) {
  WriteFile("E 3\nD 0 7:1\n");
  EXPECT_FALSE(LoadCorpus(path_).ok());
}

TEST_F(CorpusIoTest, UnknownTagRejected) {
  WriteFile("E 3\nX nonsense\n");
  EXPECT_FALSE(LoadCorpus(path_).ok());
}

TEST_F(CorpusIoTest, CommentsAndBlanksIgnored) {
  WriteFile("# hello\n\nE 2\nD 0 0:1 1:2\n");
  Result<Corpus> loaded = LoadCorpus(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->documents.size(), 1u);
}

TEST_F(CorpusIoTest, MentionCountDefaultsToOne) {
  WriteFile("E 2\nD 0 1\n");
  Result<Corpus> loaded = LoadCorpus(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->documents[0].mentions[0].count, 1);
}

TEST_F(CorpusIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadCorpus("/nonexistent/corpus.txt").status().code(),
            StatusCode::kIoError);
}

TEST_F(CorpusIoTest, QuestionsRoundTrip) {
  std::vector<Question> questions(2);
  questions[0].best_document = 3;
  questions[0].mentions = {{1, 2}, {4, 1}};
  questions[0].relevant_documents = {3, 7};
  questions[1].best_document = 0;
  questions[1].mentions = {{2, 1}};
  questions[1].relevant_documents = {0};

  ASSERT_TRUE(SaveQuestions(questions, path_).ok());
  Result<std::vector<Question>> loaded = LoadQuestions(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].best_document, 3);
  ASSERT_EQ((*loaded)[0].mentions.size(), 2u);
  EXPECT_EQ((*loaded)[0].mentions[1].entity, 4u);
  EXPECT_EQ((*loaded)[0].relevant_documents, (std::vector<int>{3, 7}));
  EXPECT_EQ((*loaded)[1].best_document, 0);
}

TEST_F(CorpusIoTest, QuestionBadTagRejected) {
  WriteFile("Z 1 2:1\n");
  EXPECT_FALSE(LoadQuestions(path_).ok());
}

}  // namespace
}  // namespace kgov::qa
