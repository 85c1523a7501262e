// Tests for the binary_io primitives, the Serialize/Deserialize support
// on the linalg types, and the model-artifact round trip: a fitted
// model saved to disk and served back through ScoringSession must score
// bit-identically to the in-memory model, at every thread count, with
// no fit stage running.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "datagen/aligned_generator.h"
#include "eval/link_split.h"
#include "linalg/csr_matrix.h"
#include "linalg/sparse_tensor3.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "score_forms.h"

namespace slampred {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryIoTest, PrimitiveRoundTrip) {
  BinaryWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI32(-42);
  writer.WriteDouble(3.141592653589793);
  writer.WriteBool(true);
  writer.WriteString("hello");

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.ReadI32().value(), -42);
  EXPECT_EQ(reader.ReadDouble().value(), 3.141592653589793);
  EXPECT_TRUE(reader.ReadBool().value());
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, ReadPastEndIsOffsetDiagnosed) {
  BinaryWriter writer;
  writer.WriteU32(7);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadU32().ok());
  const auto failed = reader.ReadU64();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("offset 4"), std::string::npos);
}

TEST(BinaryIoTest, BoolRejectsOtherBytes) {
  const std::string bytes = "\x02";
  BinaryReader reader(bytes);
  EXPECT_FALSE(reader.ReadBool().ok());
}

TEST(BinaryIoTest, Crc32MatchesReferenceVector) {
  // The canonical CRC-32 check value (IEEE / zlib convention).
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(BinaryIoTest, FileRoundTrip) {
  const std::string path = TempPath("binary_io_file.bin");
  const std::string payload("ab\0cd\xFFz", 7);
  ASSERT_TRUE(WriteStringToFile(payload, path).ok());
  auto loaded = ReadFileToString(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), payload);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileToString(path).ok());
}

TEST(SerializeTest, MatrixRoundTrip) {
  Matrix m(3, 2);
  m(0, 0) = 1.5;
  m(1, 1) = -2.25;
  m(2, 0) = 1e-300;
  BinaryWriter writer;
  m.Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = Matrix::Deserialize(reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), m);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, CsrMatrixRoundTrip) {
  Matrix dense(4, 4);
  dense(0, 1) = 2.0;
  dense(1, 3) = -1.0;
  dense(3, 0) = 0.5;
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  BinaryWriter writer;
  csr.Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = CsrMatrix::Deserialize(reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ToDense(), dense);
  EXPECT_EQ(back.value().nnz(), csr.nnz());
}

TEST(SerializeTest, CsrMatrixRejectsCorruptInvariants) {
  Matrix dense(2, 2);
  dense(0, 0) = 1.0;
  dense(1, 1) = 1.0;
  BinaryWriter writer;
  CsrMatrix::FromDense(dense).Serialize(writer);
  // Layout: rows u64 | cols u64 | nnz u64 | row_ptr (rows+1) u64 | ...
  // Corrupt the second row_ptr entry (offset 24 + 8) to break
  // monotonicity.
  std::string bytes = writer.buffer();
  bytes[32] = static_cast<char>(0xEE);
  BinaryReader reader(bytes);
  auto back = CsrMatrix::Deserialize(reader);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
  EXPECT_NE(back.status().message().find("corrupt csr matrix"),
            std::string::npos);
}

TEST(SerializeTest, SparseTensor3RoundTrip) {
  Tensor3 dense(2, 3, 3);
  dense(0, 0, 1) = 4.0;
  dense(1, 2, 2) = -3.5;
  const SparseTensor3 tensor = SparseTensor3::FromDense(dense);
  BinaryWriter writer;
  tensor.Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = SparseTensor3::Deserialize(reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().dim0(), 2u);
  EXPECT_EQ(back.value().TotalNnz(), tensor.TotalNnz());
  for (std::size_t k = 0; k < tensor.dim0(); ++k) {
    EXPECT_EQ(back.value().Slice(k), tensor.Slice(k));
  }
}

class ModelArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AlignedGeneratorConfig gen_config = DefaultExperimentConfig(17);
    gen_config.population.num_personas = 90;
    auto gen = GenerateAligned(gen_config);
    ASSERT_TRUE(gen.ok());
    generated_ = new GeneratedAligned(std::move(gen).value());
    full_graph_ = new SocialGraph(SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.target()));
    Rng rng(11);
    auto folds = SplitLinks(*full_graph_, 5, rng);
    ASSERT_TRUE(folds.ok());
    train_graph_ = new SocialGraph(
        full_graph_->WithEdgesRemoved(folds.value()[0].test_edges));

    SlamPredConfig config;
    config.optimization.inner.max_iterations = 40;
    config.optimization.max_outer_iterations = 2;
    model_ = new SlamPred(config);
    ASSERT_TRUE(model_->Fit(generated_->networks, *train_graph_).ok());
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete full_graph_;
    delete train_graph_;
    delete model_;
    generated_ = nullptr;
  }

  static std::vector<UserPair> SamplePairs() {
    std::vector<UserPair> pairs;
    const std::size_t n = model_->NumUsersFitted();
    for (std::size_t u = 0; u < n; u += 3) {
      for (std::size_t v = u + 1; v < n; v += 7) pairs.push_back({u, v});
    }
    return pairs;
  }

  static GeneratedAligned* generated_;
  static SocialGraph* full_graph_;
  static SocialGraph* train_graph_;
  static SlamPred* model_;
};

GeneratedAligned* ModelArtifactTest::generated_ = nullptr;
SocialGraph* ModelArtifactTest::full_graph_ = nullptr;
SocialGraph* ModelArtifactTest::train_graph_ = nullptr;
SlamPred* ModelArtifactTest::model_ = nullptr;

TEST_F(ModelArtifactTest, SnapshotRequiresFit) {
  SlamPred unfitted;
  const auto artifact = MakeModelArtifact(unfitted);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelArtifactTest, InMemoryRoundTripIsExact) {
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  const std::string bytes = SerializeModelArtifact(artifact.value());
  auto back = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(back.ok());
  const Matrix* s = StoredAs<Matrix>(back.value().scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, *StoredAs<Matrix>(model_->scores()));
  EXPECT_FALSE(back.value().has_adapted_tensors);
  // The config round-trips exactly: re-serializing the parsed artifact
  // reproduces the original byte stream.
  EXPECT_EQ(SerializeModelArtifact(back.value()), bytes);
}

TEST_F(ModelArtifactTest, AdaptedTensorsRoundTrip) {
  // A fit never writes section 3, but older artifacts carry it: attach
  // tensors the way such a file holds them and check that the codec
  // reads them back and re-writes the same bytes.
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  EXPECT_FALSE(artifact.value().has_adapted_tensors);
  const std::size_t n = model_->NumUsersFitted();
  Tensor3 dense(3, n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) dense(i % 3, i, i + 1) = 0.5 + i;
  artifact.value().adapted_tensors = {SparseTensor3::FromDense(dense),
                                      SparseTensor3(2, n, n)};
  artifact.value().has_adapted_tensors = true;
  const std::string bytes = SerializeModelArtifact(artifact.value());
  auto back = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back.value().has_adapted_tensors);
  EXPECT_EQ(SerializeModelArtifact(back.value()), bytes);
  ASSERT_EQ(back.value().adapted_tensors.size(), 2u);
  EXPECT_EQ(back.value().adapted_tensors[0].TotalNnz(), n - 1);
  EXPECT_EQ(back.value().adapted_tensors[1].dim0(), 2u);
}

TEST_F(ModelArtifactTest, LoadedScoresBitIdenticalAcrossThreadCounts) {
  const std::string path = TempPath("artifact_roundtrip.slpmodel");
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE(SaveModelArtifact(artifact.value(), path).ok());

  const std::vector<UserPair> pairs = SamplePairs();
  auto expected = model_->ScorePairs(pairs);
  ASSERT_TRUE(expected.ok());

  const std::size_t original_threads = ThreadPool::Global().num_threads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    auto session = ScoringSession::FromFile(path);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto served = session.value().ScorePairs(pairs);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served.value().size(), expected.value().size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      // Bitwise equality, not approximate: the artifact stores exact
      // IEEE-754 patterns.
      EXPECT_EQ(served.value()[i], expected.value()[i])
          << "pair " << i << " at " << threads << " thread(s)";
    }
  }
  ThreadPool::Global().Resize(original_threads);
  std::remove(path.c_str());
}

TEST_F(ModelArtifactTest, ScoringSessionNeverRunsFitStages) {
  const std::string path = TempPath("artifact_no_fit.slpmodel");
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE(SaveModelArtifact(artifact.value(), path).ok());

  // Arm every fit stage to fail on any hit. If serving touched any
  // stage, loading or scoring below would fail.
  FaultSpec always_fail;
  always_fail.kind = FaultKind::kFailNotConverged;
  always_fail.max_triggers = -1;
  FaultInjector::Instance().Arm("fit.features", always_fail);
  FaultInjector::Instance().Arm("fit.embedding", always_fail);
  FaultInjector::Instance().Arm("fit.solve", always_fail);

  // Sanity: the armed sites do break an actual fit.
  SlamPred refit(model_->config());
  EXPECT_FALSE(refit.Fit(generated_->networks, *train_graph_).ok());

  auto session = ScoringSession::FromFile(path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto served = session.value().ScorePairs(SamplePairs());
  EXPECT_TRUE(served.ok());
  EXPECT_EQ(FaultInjector::Instance().HitCount("fit.features"), 1);

  FaultInjector::Instance().Reset();
  std::remove(path.c_str());
}

TEST_F(ModelArtifactTest, SessionBoundsAndIdentity) {
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  const std::size_t n = artifact.value().scores->num_users();
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().num_users(), n);
  EXPECT_EQ(session.value().name(), "SLAMPRED (artifact)");
  EXPECT_EQ(session.value().Score(0, 1).value(),
            model_->Score(0, 1).value());
  EXPECT_EQ(session.value().Score(n, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.value().ScorePairs({{0, n}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ModelArtifactTest, EmptyArtifactRejectedForServing) {
  ModelArtifact artifact;
  EXPECT_FALSE(ScoringSession::FromArtifact(std::move(artifact)).ok());
}

// ---------------------------------------------------------------------
// Factored-backend artifacts: a model fitted with the factored solver
// snapshots its U·Vᵀ factors into the low-rank section instead of the
// dense score matrix. The section must round-trip bit-exactly, mark the
// backend on load, and serve through ScoringSession with scores
// identical to the in-memory factored model.

class FactoredArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AlignedGeneratorConfig gen_config = DefaultExperimentConfig(19);
    gen_config.population.num_personas = 90;
    auto gen = GenerateAligned(gen_config);
    ASSERT_TRUE(gen.ok());
    generated_ = new GeneratedAligned(std::move(gen).value());
    SocialGraph full = SocialGraph::FromHeterogeneousNetwork(
        generated_->networks.target());
    Rng rng(12);
    auto folds = SplitLinks(full, 5, rng);
    ASSERT_TRUE(folds.ok());
    train_graph_ = new SocialGraph(
        full.WithEdgesRemoved(folds.value()[0].test_edges));

    SlamPredConfig config;
    config.optimization.inner.max_iterations = 25;
    config.optimization.max_outer_iterations = 2;
    config.solver_backend = SolverBackend::kFactored;
    config.factored.rank = 16;
    model_ = new SlamPred(config);
    ASSERT_TRUE(model_->Fit(generated_->networks, *train_graph_).ok());
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete train_graph_;
    delete model_;
    generated_ = nullptr;
  }

  static std::vector<UserPair> SamplePairs() {
    std::vector<UserPair> pairs;
    const std::size_t n = model_->NumUsersFitted();
    for (std::size_t u = 0; u < n; u += 3) {
      for (std::size_t v = u + 1; v < n; v += 7) pairs.push_back({u, v});
    }
    return pairs;
  }

  static GeneratedAligned* generated_;
  static SocialGraph* train_graph_;
  static SlamPred* model_;
};

GeneratedAligned* FactoredArtifactTest::generated_ = nullptr;
SocialGraph* FactoredArtifactTest::train_graph_ = nullptr;
SlamPred* FactoredArtifactTest::model_ = nullptr;

TEST_F(FactoredArtifactTest, SnapshotCarriesTheFactorsNotADenseMatrix) {
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const FactoredMatrix* low_rank = StoredAs<FactoredMatrix>(
      artifact.value().scores);
  ASSERT_NE(low_rank, nullptr);
  // The snapshot shares the model's factors rather than copying them.
  EXPECT_EQ(artifact.value().scores, model_->scores());
  EXPECT_GT(low_rank->rank(), 0u);
}

TEST_F(FactoredArtifactTest, RoundTripIsExactAndMarksTheBackend) {
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  const std::string bytes = SerializeModelArtifact(artifact.value());
  auto back = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const FactoredMatrix* low_rank =
      StoredAs<FactoredMatrix>(back.value().scores);
  ASSERT_NE(low_rank, nullptr);
  // Factor matrices carry exact IEEE-754 patterns through the stream.
  EXPECT_TRUE(*low_rank == *StoredAs<FactoredMatrix>(model_->scores()));
  // The backend is inferred from which section is present, so a loaded
  // factored artifact always reports the factored solver.
  EXPECT_EQ(back.value().config.solver_backend, SolverBackend::kFactored);
  // Re-serializing the parsed artifact reproduces the original stream.
  EXPECT_EQ(SerializeModelArtifact(back.value()), bytes);
}

TEST_F(FactoredArtifactTest, ServedScoresBitIdenticalAcrossThreadCounts) {
  const std::string path = TempPath("factored_roundtrip.slpmodel");
  auto artifact = MakeModelArtifact(*model_);
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE(SaveModelArtifact(artifact.value(), path).ok());

  const std::vector<UserPair> pairs = SamplePairs();
  auto expected = model_->ScorePairs(pairs);
  ASSERT_TRUE(expected.ok());
  const Matrix dense = StoredAs<FactoredMatrix>(model_->scores())->ToDense();

  const std::size_t original_threads = ThreadPool::Global().num_threads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    ThreadPool::Global().Resize(threads);
    auto session = ScoringSession::FromFile(path);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session.value().num_users(), model_->NumUsersFitted());
    auto served = session.value().ScorePairs(pairs);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served.value().size(), expected.value().size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      // Bitwise equality against both the in-memory factored model and
      // the densified factors.
      EXPECT_EQ(served.value()[i], expected.value()[i])
          << "pair " << i << " at " << threads << " thread(s)";
      EXPECT_EQ(served.value()[i], dense(pairs[i].u, pairs[i].v))
          << "pair " << i << " at " << threads << " thread(s)";
    }
  }
  ThreadPool::Global().Resize(original_threads);
  std::remove(path.c_str());
}

TEST_F(FactoredArtifactTest, DenseArtifactsStayDenseOnLoad) {
  // A dense-backend snapshot must not pick up the factored backend on
  // load: the inference keys off the low-rank section alone.
  SlamPredConfig config;
  config.optimization.inner.max_iterations = 10;
  config.optimization.max_outer_iterations = 1;
  SlamPred dense_model(config);
  ASSERT_TRUE(dense_model.Fit(generated_->networks, *train_graph_).ok());
  auto artifact = MakeModelArtifact(dense_model);
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(StoredAs<FactoredMatrix>(artifact.value().scores), nullptr);
  auto back = DeserializeModelArtifact(SerializeModelArtifact(artifact.value()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(StoredAs<FactoredMatrix>(back.value().scores), nullptr);
  EXPECT_EQ(back.value().config.solver_backend, SolverBackend::kDense);
  const Matrix* s = StoredAs<Matrix>(back.value().scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, *StoredAs<Matrix>(dense_model.scores()));
}

}  // namespace
}  // namespace slampred
