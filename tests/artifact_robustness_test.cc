// Fuzz-ish robustness tests for the model-artifact reader: truncations
// at every prefix length, single-byte corruption at every offset, and
// targeted magic/version/checksum damage must all yield clean,
// offset-diagnosed Status failures — never a crash or an out-of-bounds
// read (the ASan CI leg runs this file too). Also covers the
// "artifact.read" fault-injection site, crash-safe publication
// (WriteArtifactAtomic: tmp + fsync + rename + last_good sidecar), and
// SwapFromFile recovery from torn files via retry and rollback.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "serve/artifact_quantizer.h"
#include "serve/model_registry.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "score_forms.h"

namespace slampred {
namespace {

// A small but complete artifact built without a fit: default config
// plus a 4x4 score matrix and one adapted tensor, exercising all three
// section kinds.
std::string ValidArtifactBytes() {
  Matrix s(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      s(i, j) = 0.25 * static_cast<double>(i) + 0.125 * static_cast<double>(j);
    }
  }
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(std::move(s));
  Tensor3 dense(2, 4, 4);
  dense(0, 1, 2) = 1.0;
  dense(1, 3, 0) = -2.0;
  artifact.adapted_tensors.push_back(SparseTensor3::FromDense(dense));
  artifact.has_adapted_tensors = true;
  return SerializeModelArtifact(artifact);
}

TEST(ArtifactRobustnessTest, ValidBytesParse) {
  auto artifact = DeserializeModelArtifact(ValidArtifactBytes());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const Matrix* s = StoredAs<Matrix>(artifact.value().scores);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rows(), 4u);
  EXPECT_TRUE(artifact.value().has_adapted_tensors);
}

TEST(ArtifactRobustnessTest, EveryTruncationFailsCleanly) {
  const std::string bytes = ValidArtifactBytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto result = DeserializeModelArtifact(bytes.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(ArtifactRobustnessTest, TruncationsAreOffsetDiagnosed) {
  const std::string bytes = ValidArtifactBytes();
  // A cut inside the magic, inside the header, and inside a section
  // payload each name the offset where parsing broke.
  for (std::size_t len : {std::size_t{3}, std::size_t{10},
                          std::size_t{bytes.size() / 2},
                          bytes.size() - 1}) {
    const auto result = DeserializeModelArtifact(bytes.substr(0, len));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << "len " << len;
    EXPECT_NE(result.status().message().find("offset"), std::string::npos)
        << "len " << len << ": " << result.status().ToString();
  }
}

TEST(ArtifactRobustnessTest, EveryBitFlipIsHandledWithoutCrashing) {
  const std::string bytes = ValidArtifactBytes();
  // Flip one bit in every byte of the stream. Each corrupted stream
  // must either be rejected with a diagnosed Status or — where the flip
  // lands in genuinely ignorable space — parse without any memory
  // error. No outcome may crash.
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    const auto result = DeserializeModelArtifact(corrupt);
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // The vast majority of the stream is checksummed payload or load-
  // bearing header, so nearly every flip must be caught.
  EXPECT_GT(rejected, bytes.size() * 9 / 10);
}

TEST(ArtifactRobustnessTest, BadMagicIsDiagnosed) {
  std::string bytes = ValidArtifactBytes();
  bytes[0] = 'X';
  const auto result = DeserializeModelArtifact(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(ArtifactRobustnessTest, WrongVersionIsDiagnosed) {
  std::string bytes = ValidArtifactBytes();
  bytes[8] = static_cast<char>(kModelArtifactFormatVersion + 1);
  const auto result = DeserializeModelArtifact(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
  EXPECT_NE(result.status().message().find("offset 8"), std::string::npos);
}

TEST(ArtifactRobustnessTest, PayloadCorruptionFailsTheChecksum) {
  std::string bytes = ValidArtifactBytes();
  // Byte 28 is inside the first section's payload (16-byte header +
  // 4-byte id + 8-byte length put the payload at offset 28).
  bytes[28] = static_cast<char>(bytes[28] ^ 0xFF);
  const auto result = DeserializeModelArtifact(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(ArtifactRobustnessTest, MissingSectionsAreDiagnosed) {
  // A structurally valid stream with zero sections parses the header
  // fine but must be rejected for lacking config + score matrix.
  BinaryWriter writer;
  writer.WriteBytes("SLPMODEL", 8);
  writer.WriteU32(kModelArtifactFormatVersion);
  writer.WriteU32(0);
  const auto result = DeserializeModelArtifact(writer.buffer());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("required section"),
            std::string::npos);
}

TEST(ArtifactRobustnessTest, UnknownSectionIdsAreSkipped) {
  // Append a checksummed section with an unknown id; the artifact must
  // still load (additive format growth stays readable).
  Matrix s(2, 2);
  s(0, 1) = 1.0;
  ModelArtifact artifact;
  artifact.scores = std::make_shared<DenseScores>(std::move(s));
  std::string bytes = SerializeModelArtifact(artifact);
  BinaryWriter extra;
  const std::string payload = "future data";
  extra.WriteU32(999);
  extra.WriteU64(payload.size());
  extra.WriteBytes(payload.data(), payload.size());
  extra.WriteU32(Crc32(payload.data(), payload.size()));
  bytes += extra.buffer();
  // Bump the section count (offset 12, little-endian u32 low byte).
  bytes[12] = static_cast<char>(bytes[12] + 1);
  const auto result = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().scores->num_users(), 2u);
}

TEST(ArtifactRobustnessTest, LoadPrefixesThePath) {
  const std::string path = ::testing::TempDir() + "/corrupt.slpmodel";
  std::string bytes = ValidArtifactBytes();
  bytes[0] = 'X';
  ASSERT_TRUE(WriteStringToFile(bytes, path).ok());
  const auto result = LoadModelArtifact(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(ArtifactRobustnessTest, ArtifactReadFaultSite) {
  const std::string path = ::testing::TempDir() + "/fault.slpmodel";
  ASSERT_TRUE(WriteStringToFile(ValidArtifactBytes(), path).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  FaultInjector::Instance().Arm("artifact.read", spec);
  const auto injected = LoadModelArtifact(path);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kIoError);
  EXPECT_EQ(FaultInjector::Instance().TriggerCount("artifact.read"), 1);

  // The single-shot spec is exhausted: the next load succeeds, and so
  // does serving it.
  const auto loaded = LoadModelArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto session = ScoringSession::FromFile(path);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value().Score(0, 1).ok());

  FaultInjector::Instance().Reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The factored low-rank section (id 4) gets the same treatment: a
// config + factor-only stream must survive every truncation and bit
// flip without crashing, and an *unknown* low-rank id must degrade
// exactly the way an old reader would — skip the section, keep going.

// A factored-backend artifact: default config plus 4x4 factors of rank
// 2 — no dense score matrix section at all.
std::string ValidFactoredArtifactBytes() {
  ModelArtifact artifact;
  Matrix u(4, 2);
  Matrix v(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      u(i, c) = 0.5 * static_cast<double>(i) + static_cast<double>(c);
      v(i, c) = 0.25 * static_cast<double>(i) - static_cast<double>(c);
    }
  }
  artifact.scores = std::make_shared<FactoredScores>(
      FactoredMatrix(std::move(u), std::move(v)));
  return SerializeModelArtifact(artifact);
}

// Rewrites the id of the first section whose id equals `from`. Section
// ids live outside the payload checksum, so the patched stream stays
// CRC-valid and only the id changes — exactly what a reader from a
// future format version would present to this one.
std::string PatchSectionId(std::string bytes, std::uint32_t from,
                           std::uint32_t to) {
  auto read_u32 = [&](std::size_t pos) {
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[pos + b]))
               << (8 * b);
    }
    return value;
  };
  auto read_u64 = [&](std::size_t pos) {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[pos + b]))
               << (8 * b);
    }
    return value;
  };
  // 8-byte magic + u32 version + u32 count, then sections of
  // u32 id · u64 size · payload · u32 crc.
  std::size_t pos = 16;
  while (pos + 12 <= bytes.size()) {
    if (read_u32(pos) == from) {
      for (std::size_t b = 0; b < 4; ++b) {
        bytes[pos + b] = static_cast<char>((to >> (8 * b)) & 0xFF);
      }
      return bytes;
    }
    pos += 12 + read_u64(pos + 4) + 4;
  }
  ADD_FAILURE() << "no section with id " << from << " in the stream";
  return bytes;
}

// Payload offset and size of the first section with id `id` in a
// serialized artifact stream (npos when absent).
std::pair<std::size_t, std::size_t> FindSectionPayload(
    const std::string& bytes, std::uint32_t id) {
  auto read_u32 = [&](std::size_t pos) {
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[pos + b]))
               << (8 * b);
    }
    return value;
  };
  auto read_u64 = [&](std::size_t pos) {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[pos + b]))
               << (8 * b);
    }
    return value;
  };
  std::size_t pos = 16;
  while (pos + 12 <= bytes.size()) {
    const std::uint64_t size = read_u64(pos + 4);
    if (read_u32(pos) == id) {
      return {pos + 12, static_cast<std::size_t>(size)};
    }
    pos += 12 + size + 4;
  }
  return {std::string::npos, 0};
}

// Appends the first section `id` of `donor` (id, size, payload and
// CRC, verbatim) to the stream `bytes` and bumps its section count —
// how tests build streams that carry two score payloads.
std::string AppendSectionOf(std::string bytes, const std::string& donor,
                            std::uint32_t id) {
  const auto [begin, size] = FindSectionPayload(donor, id);
  EXPECT_NE(begin, std::string::npos) << "section " << id << " not found";
  bytes += donor.substr(begin - 12, 12 + size + 4);
  bytes[12] = static_cast<char>(bytes[12] + 1);
  return bytes;
}

constexpr std::uint32_t kLowRankSectionId = 4;

TEST(FactoredArtifactRobustnessTest, ValidBytesParseAndMarkTheBackend) {
  auto artifact = DeserializeModelArtifact(ValidFactoredArtifactBytes());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const FactoredMatrix* low_rank =
      StoredAs<FactoredMatrix>(artifact.value().scores);
  ASSERT_NE(low_rank, nullptr);
  EXPECT_EQ(low_rank->rows(), 4u);
  EXPECT_EQ(low_rank->rank(), 2u);
  EXPECT_EQ(artifact.value().config.solver_backend,
            SolverBackend::kFactored);
}

TEST(FactoredArtifactRobustnessTest, EveryTruncationFailsCleanly) {
  const std::string bytes = ValidFactoredArtifactBytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto result = DeserializeModelArtifact(bytes.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(FactoredArtifactRobustnessTest, EveryBitFlipIsHandledWithoutCrashing) {
  const std::string bytes = ValidFactoredArtifactBytes();
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    const auto result = DeserializeModelArtifact(corrupt);
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // As with the dense stream, nearly every byte is checksummed payload
  // or load-bearing header.
  EXPECT_GT(rejected, bytes.size() * 9 / 10);
}

TEST(FactoredArtifactRobustnessTest, OldReaderSkipOfTheLowRankSection) {
  // A stream carrying BOTH a dense score matrix and a low-rank section
  // stands in for the forward-compat contract: a reader that does not
  // know the low-rank id (simulated by patching it to 99) must skip the
  // section with its CRC verified and serve the dense matrix, staying
  // on the dense backend. An artifact holds one score source, so the
  // stream is spliced from a dense and a factored one.
  Matrix s(4, 4);
  s(1, 2) = 0.75;
  ModelArtifact dense;
  dense.scores = std::make_shared<DenseScores>(std::move(s));
  Matrix u(4, 1);
  Matrix v(4, 1);
  u(0, 0) = 1.0;
  v(3, 0) = -1.0;
  ModelArtifact factored;
  factored.scores = std::make_shared<FactoredScores>(
      FactoredMatrix(std::move(u), std::move(v)));
  const std::string bytes =
      AppendSectionOf(SerializeModelArtifact(dense),
                      SerializeModelArtifact(factored), kLowRankSectionId);

  // Sanity: unpatched, the low-rank section wins the backend marker,
  // while the non-empty dense matrix is the payload that loads.
  auto both = DeserializeModelArtifact(bytes);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(both.value().config.solver_backend, SolverBackend::kFactored);
  EXPECT_NE(StoredAs<Matrix>(both.value().scores), nullptr);

  const std::string patched = PatchSectionId(bytes, kLowRankSectionId, 99);
  auto result = DeserializeModelArtifact(patched);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(StoredAs<FactoredMatrix>(result.value().scores), nullptr);
  EXPECT_EQ(result.value().config.solver_backend, SolverBackend::kDense);
  const Matrix* loaded = StoredAs<Matrix>(result.value().scores);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->rows(), 4u);
  EXPECT_EQ((*loaded)(1, 2), 0.75);
}

TEST(FactoredArtifactRobustnessTest,
     SkippedLowRankSectionWithoutDenseFallbackIsRejected) {
  // The same skip on a factor-only stream leaves no score matrix at
  // all: the old reader walks the unknown section cleanly and then
  // reports the missing required section instead of crashing.
  const std::string patched =
      PatchSectionId(ValidFactoredArtifactBytes(), kLowRankSectionId, 99);
  const auto result = DeserializeModelArtifact(patched);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("required section"),
            std::string::npos);
}

TEST(FactoredArtifactRobustnessTest, FactoredStreamServesAfterReload) {
  const std::string path = ::testing::TempDir() + "/factored.slpmodel";
  ASSERT_TRUE(WriteStringToFile(ValidFactoredArtifactBytes(), path).ok());
  auto session = ScoringSession::FromFile(path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // The session scores straight from the factors; entry (0, 0) of the
  // helper's factors is u(0,:)·v(0,:) = 0·0 + 1·(-1) = -1.
  auto score = session.value().Score(0, 0);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score.value(), -1.0);
  std::remove(path.c_str());
}

// The artifact behind ValidArtifactBytes(), for WriteArtifactAtomic.
ModelArtifact ValidArtifact() {
  auto artifact = DeserializeModelArtifact(ValidArtifactBytes());
  EXPECT_TRUE(artifact.ok());
  return std::move(artifact).value();
}

TEST(ArtifactPublicationTest, AtomicWritePublishesPrimaryAndSidecar) {
  const std::string path = ::testing::TempDir() + "/atomic.slpmodel";
  ASSERT_TRUE(WriteArtifactAtomic(ValidArtifact(), path).ok());

  // Primary and sidecar both load, hold identical bytes, and no .tmp
  // staging file survives the publish.
  auto primary = ReadFileToString(path);
  auto sidecar = ReadFileToString(LastGoodArtifactPath(path));
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(sidecar.ok());
  EXPECT_EQ(primary.value(), sidecar.value());
  EXPECT_TRUE(DeserializeModelArtifact(primary.value()).ok());
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  EXPECT_FALSE(ReadFileToString(LastGoodArtifactPath(path) + ".tmp").ok());

  std::remove(path.c_str());
  std::remove(LastGoodArtifactPath(path).c_str());
}

TEST(ArtifactPublicationTest, MidWriteKillLeavesPublishedArtifactIntact) {
  const std::string path = ::testing::TempDir() + "/killed.slpmodel";
  ASSERT_TRUE(WriteArtifactAtomic(ValidArtifact(), path).ok());
  const std::string bytes = ValidArtifactBytes();

  // Simulate a writer killed mid-write at every prefix length: the
  // staging .tmp holds a torn copy, but the published path — which an
  // atomic publish only touches via rename — must keep serving.
  for (std::size_t len = 0; len < bytes.size(); len += 37) {
    ASSERT_TRUE(WriteStringToFile(bytes.substr(0, len), path + ".tmp").ok());
    auto loaded = LoadModelArtifact(path);
    ASSERT_TRUE(loaded.ok()) << "torn tmp of " << len
                             << " bytes corrupted the published artifact";
  }

  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
  std::remove(LastGoodArtifactPath(path).c_str());
}

TEST(ArtifactPublicationTest,
     EveryTruncationOfPrimaryRollsBackToLastGoodSidecar) {
  const std::string path = ::testing::TempDir() + "/torn.slpmodel";
  ASSERT_TRUE(WriteArtifactAtomic(ValidArtifact(), path).ok());
  const std::string bytes = ValidArtifactBytes();

  // No retry sleeps: every load failure goes straight to the rollback.
  ModelRegistryOptions options;
  options.swap_retry_attempts = 0;
  ModelRegistry registry(options);

  int rollbacks = 0;
  for (std::size_t len = 0; len < bytes.size(); len += 13) {
    // A torn primary (as if a non-atomic writer died mid-publish)...
    ASSERT_TRUE(WriteStringToFile(bytes.substr(0, len), path).ok());
    // ...is recovered by publishing the last_good sidecar instead.
    const Status swapped = registry.SwapFromFile(path);
    ASSERT_TRUE(swapped.ok()) << "prefix " << len << ": "
                              << swapped.ToString();
    ++rollbacks;
    EXPECT_EQ(registry.recovery().artifact_rollbacks, rollbacks);
    EXPECT_EQ(registry.recovery().swap_failures, rollbacks);
    EXPECT_EQ(registry.current_version(),
              static_cast<std::uint64_t>(rollbacks));
    // The published model is the sidecar's artifact, fully servable.
    const auto model = registry.Acquire();
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->num_users(), 4u);
  }

  std::remove(path.c_str());
  std::remove(LastGoodArtifactPath(path).c_str());
}

TEST(ArtifactPublicationTest, TransientReadFaultIsAbsorbedByRetryBudget) {
  const std::string path = ::testing::TempDir() + "/transient.slpmodel";
  ASSERT_TRUE(WriteArtifactAtomic(ValidArtifact(), path).ok());

  // One injected read failure; the deterministic retry reloads cleanly,
  // so no swap failure and no rollback are recorded.
  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("artifact.read", spec);

  ModelRegistry registry;
  const Status swapped = registry.SwapFromFile(path);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(registry.recovery().swap_failures, 0);
  EXPECT_EQ(registry.recovery().artifact_rollbacks, 0);
  EXPECT_EQ(registry.current_version(), 1u);

  FaultInjector::Instance().Reset();
  std::remove(path.c_str());
  std::remove(LastGoodArtifactPath(path).c_str());
}

TEST(ArtifactPublicationTest, MissingSidecarPropagatesThePrimaryFailure) {
  const std::string path = ::testing::TempDir() + "/no_sidecar.slpmodel";
  std::string bytes = ValidArtifactBytes();
  bytes[0] = 'X';  // Corrupt primary, and no last_good exists.
  ASSERT_TRUE(WriteStringToFile(bytes, path).ok());

  ModelRegistryOptions options;
  options.swap_retry_attempts = 0;
  ModelRegistry registry(options);
  const Status swapped = registry.SwapFromFile(path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.code(), StatusCode::kIoError);
  EXPECT_EQ(registry.recovery().swap_failures, 1);
  EXPECT_EQ(registry.recovery().artifact_rollbacks, 0);
  EXPECT_EQ(registry.current_version(), 0u);

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Quantized and hot-cache sections (ids 8–11, DESIGN.md §15) get the
// same fuzz treatment as the float sections: every prefix truncation
// and per-byte bit flip must fail cleanly, unknown-id skips must behave
// like an old reader, and — the sharpest case — a corrupt scale vector
// whose section CRC has been recomputed must be REJECTED by the
// semantic validation layer, never mis-dequantized into garbage scores.

// A quantized dense artifact: config + quantized scores (8) + hot
// cache (11) + adapted tensors, no float score payload at all.
std::string ValidQuantizedArtifactBytes(
    QuantizationBits bits = QuantizationBits::kU8) {
  ArtifactQuantizerOptions options;
  options.bits = bits;
  options.hot_user_ids = {0, 2};
  options.hot_row_entries = 2;  // Bounded (incomplete) prefixes.
  auto quantized = QuantizeModelArtifact(ValidArtifact(), options);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return SerializeModelArtifact(quantized.value());
}

// A deterministic sharded float artifact: two symmetric blocks over
// users [0, 3) and [3, 6) plus a symmetric cross-shard boundary.
ModelArtifact ValidShardedArtifact() {
  std::vector<ModelShard> shards(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      shards[c].users.push_back(static_cast<std::uint32_t>(3 * c + i));
    }
    Matrix block(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        block(i, j) = 0.125 * static_cast<double>(i + j) +
                      (c == 0 ? 0.0 : 0.5) + (i == j ? 1.0 : 0.0);
      }
    }
    shards[c].block = std::make_shared<DenseScores>(std::move(block));
  }
  Matrix boundary(6, 6);
  boundary(0, 4) = 0.5;
  boundary(4, 0) = 0.5;
  boundary(2, 5) = -0.25;
  boundary(5, 2) = -0.25;
  ModelArtifact artifact;
  auto sharded = ShardedScores::Create(
      std::move(shards),
      std::make_shared<BoundaryScores>(CsrMatrix::FromDense(boundary)), 6);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  artifact.scores = std::move(sharded).value();
  return artifact;
}

// The quantized form: manifest (5) + quantized shards (9) + quantized
// boundary (10) + hot cache (11).
std::string ValidQuantizedShardedArtifactBytes(
    QuantizationBits bits = QuantizationBits::kU16) {
  ArtifactQuantizerOptions options;
  options.bits = bits;
  options.hot_user_ids = {1};
  options.hot_row_entries = 16;  // Complete row (n−1 = 5 fits).
  auto quantized = QuantizeModelArtifact(ValidShardedArtifact(), options);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return SerializeModelArtifact(quantized.value());
}

// The sharded form a partitioned factored fit writes: shard sections
// (6) holding U·Vᵀ factors — rank-1 blocks over users [0, 2) and
// rank-2 blocks over [2, 5) — plus a symmetric boundary.
ModelArtifact ValidFactoredShardedArtifact() {
  std::vector<ModelShard> shards(2);
  const std::size_t sizes[2] = {2, 3};
  std::uint32_t next_user = 0;
  for (std::size_t c = 0; c < 2; ++c) {
    const std::size_t m = sizes[c];
    const std::size_t rank = c + 1;
    Matrix u(m, rank);
    Matrix v(m, rank);
    for (std::size_t i = 0; i < m; ++i) {
      shards[c].users.push_back(next_user++);
      for (std::size_t r = 0; r < rank; ++r) {
        u(i, r) = 0.5 + 0.25 * static_cast<double>(i) - 0.125 *
                  static_cast<double>(r);
        v(i, r) = 0.75 - 0.125 * static_cast<double>(i + r);
      }
    }
    shards[c].block = std::make_shared<FactoredScores>(
        FactoredMatrix(std::move(u), std::move(v)));
  }
  Matrix boundary(5, 5);
  boundary(0, 3) = 0.375;
  boundary(3, 0) = 0.375;
  boundary(1, 4) = -0.5;
  boundary(4, 1) = -0.5;
  ModelArtifact artifact;
  auto sharded = ShardedScores::Create(
      std::move(shards),
      std::make_shared<BoundaryScores>(CsrMatrix::FromDense(boundary)), 5);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  artifact.scores = std::move(sharded).value();
  return artifact;
}

// A factored artifact quantized to u8 (the densify path: U·Vᵀ is
// materialised row by row, then quantized like a dense model) with
// hot rows for users 0 and 3 — config + quantized scores (8) + hot
// cache (11).
std::string ValidQuantizedFactoredArtifactBytes() {
  auto factored = DeserializeModelArtifact(ValidFactoredArtifactBytes());
  EXPECT_TRUE(factored.ok()) << factored.status().ToString();
  ArtifactQuantizerOptions options;
  options.bits = QuantizationBits::kU8;
  options.hot_user_ids = {0, 3};
  options.hot_row_entries = 2;
  auto quantized =
      QuantizeModelArtifact(std::move(factored).value(), options);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return SerializeModelArtifact(quantized.value());
}

// Patches `count` raw bytes inside a section payload and recomputes the
// section CRC, so the corruption reaches the semantic validators
// instead of being caught by the checksum.
std::string PatchPayloadWithValidCrc(std::string bytes, std::uint32_t id,
                                     std::size_t payload_offset,
                                     const void* data, std::size_t count) {
  const auto [begin, size] = FindSectionPayload(bytes, id);
  EXPECT_NE(begin, std::string::npos) << "section " << id << " not found";
  EXPECT_LE(payload_offset + count, size);
  std::memcpy(&bytes[begin + payload_offset], data, count);
  const std::uint32_t crc = Crc32(bytes.data() + begin, size);
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[begin + size + b] = static_cast<char>((crc >> (8 * b)) & 0xFF);
  }
  return bytes;
}

constexpr std::uint32_t kQuantizedScoresSectionId = 8;
constexpr std::uint32_t kQuantizedShardSectionId = 9;
constexpr std::uint32_t kQuantizedBoundarySectionId = 10;
constexpr std::uint32_t kHotCacheSectionId = 11;

TEST(ArtifactRobustnessTest,
     RetiredLossAndIntimacyScaleLoadAsTheirFixedValues) {
  // Config payload (section 1) of the default config: alpha_target (8),
  // alpha count (8), one alpha (8), mu, gamma, tau (3·8) put the retired
  // intimacy_scale at offset 48; latent_dim (8) and four bools put the
  // retired loss kind at offset 68. A file that still carries the hinge
  // loss (1) and a scale of 3 must load, serve, and re-serialize as the
  // fixed squared-Frobenius loss (0) and scale 16 — the original bytes.
  constexpr std::uint32_t kConfigSectionId = 1;
  constexpr std::size_t kScaleOffset = 48;
  constexpr std::size_t kLossOffset = 68;
  const std::string bytes = ValidArtifactBytes();
  const double scale = 3.0;
  const std::uint8_t hinge = 1;
  const std::string patched = PatchPayloadWithValidCrc(
      PatchPayloadWithValidCrc(bytes, kConfigSectionId, kScaleOffset, &scale,
                               sizeof(scale)),
      kConfigSectionId, kLossOffset, &hinge, sizeof(hinge));
  ASSERT_NE(patched, bytes);
  auto artifact = DeserializeModelArtifact(patched);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_TRUE(SerializeModelArtifact(artifact.value()) == bytes)
      << "the re-serialized artifact differs from the original bytes";
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto score = session.value().Score(1, 2);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_EQ(score.value(), 0.25 + 0.125 * 2);

  // A loss kind that was never written is still rejected.
  const std::uint8_t unknown = 2;
  const auto rejected = DeserializeModelArtifact(PatchPayloadWithValidCrc(
      bytes, kConfigSectionId, kLossOffset, &unknown, sizeof(unknown)));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIoError);
  EXPECT_NE(rejected.status().message().find("corrupt loss kind 2 at offset"),
            std::string::npos)
      << rejected.status().ToString();
}

TEST(QuantizedArtifactRobustnessTest, ValidBytesParseAndServe) {
  auto artifact = DeserializeModelArtifact(ValidQuantizedArtifactBytes());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_NE(StoredAs<QuantizedMatrix>(artifact.value().scores), nullptr);
  EXPECT_TRUE(artifact.value().has_hot_rows);
  EXPECT_EQ(artifact.value().hot_rows.size(), 2u);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_NE(StoredAs<QuantizedMatrix>(session.value().artifact().scores),
            nullptr);

  auto sharded =
      DeserializeModelArtifact(ValidQuantizedShardedArtifactBytes());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ShardedScores* shards = ShardedOf(sharded.value().scores);
  ASSERT_NE(shards, nullptr);
  EXPECT_TRUE(shards->quantized());
  EXPECT_NE(StoredAs<QuantizedSymmetricCsr>(shards->boundary()), nullptr);
  auto sharded_session =
      ScoringSession::FromArtifact(std::move(sharded).value());
  ASSERT_TRUE(sharded_session.ok()) << sharded_session.status().ToString();
  EXPECT_TRUE(sharded_session.value().scores().quantized());
}

TEST(QuantizedArtifactRobustnessTest, EveryTruncationFailsCleanly) {
  for (const std::string& bytes : {ValidQuantizedArtifactBytes(),
                                   ValidQuantizedShardedArtifactBytes()}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const auto result = DeserializeModelArtifact(bytes.substr(0, len));
      ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(QuantizedArtifactRobustnessTest, EveryBitFlipIsHandledWithoutCrashing) {
  for (const std::string& bytes : {ValidQuantizedArtifactBytes(),
                                   ValidQuantizedShardedArtifactBytes()}) {
    std::size_t rejected = 0;
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
      const auto result = DeserializeModelArtifact(corrupt);
      if (!result.ok()) {
        ++rejected;
        EXPECT_FALSE(result.status().message().empty());
      }
    }
    EXPECT_GT(rejected, bytes.size() * 9 / 10);
  }
}

TEST(QuantizedArtifactRobustnessTest, OldReaderSkipsQuantizedSections) {
  // A reader that knows neither the quantized-scores nor the hot-cache
  // id walks both sections cleanly (CRCs verified) and then reports the
  // missing score matrix — never garbage.
  const std::string patched =
      PatchSectionId(PatchSectionId(ValidQuantizedArtifactBytes(),
                                    kQuantizedScoresSectionId, 98),
                     kHotCacheSectionId, 97);
  const auto result = DeserializeModelArtifact(patched);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("required section"),
            std::string::npos);

  // Skipping ONLY the hot cache still serves the quantized payload —
  // the cache is an optimization, not a dependency.
  const std::string no_cache =
      PatchSectionId(ValidQuantizedArtifactBytes(), kHotCacheSectionId, 97);
  auto artifact = DeserializeModelArtifact(no_cache);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_NE(StoredAs<QuantizedMatrix>(artifact.value().scores), nullptr);
  EXPECT_FALSE(artifact.value().has_hot_rows);
  EXPECT_TRUE(
      ScoringSession::FromArtifact(std::move(artifact).value()).ok());
}

TEST(QuantizedArtifactRobustnessTest,
     CorruptScaleWithValidChecksumIsRejected) {
  // QuantizedMatrix payload: bits (1) + rows (8) + cols (8) + offsets
  // (4·8) puts the scale vector at offset 49. A negative or non-finite
  // scale with a RECOMPUTED CRC must be caught by the parameter
  // validation — mis-dequantizing would serve garbage silently.
  const std::string bytes = ValidQuantizedArtifactBytes();
  const std::size_t scale_offset = 1 + 8 + 8 + 4 * 8;
  for (double bad : {-2.5, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const std::string corrupt = PatchPayloadWithValidCrc(
        bytes, kQuantizedScoresSectionId, scale_offset, &bad, sizeof(bad));
    const auto result = DeserializeModelArtifact(corrupt);
    ASSERT_FALSE(result.ok()) << "scale " << bad << " accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    EXPECT_NE(result.status().message().find("scale"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(QuantizedArtifactRobustnessTest,
     CorruptBoundaryScaleWithValidChecksumIsRejected) {
  // QuantizedSymmetricCsr payload: bits (1) + rows (8) + upper nnz (8)
  // + offsets (6·8) puts the boundary scale vector at offset 65.
  const std::string bytes = ValidQuantizedShardedArtifactBytes();
  const double bad = -1.0;
  const std::string corrupt =
      PatchPayloadWithValidCrc(bytes, kQuantizedBoundarySectionId,
                               1 + 8 + 8 + 6 * 8, &bad, sizeof(bad));
  const auto result = DeserializeModelArtifact(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("scale"), std::string::npos)
      << result.status().ToString();
}

TEST(QuantizedArtifactRobustnessTest,
     CorruptHotCacheWithValidChecksumIsRejected) {
  // Hot-cache payload: count (8) + user (4) + complete (1) + entry
  // count (8) + v (4) puts the first entry's float-oracle score at
  // offset 25. Breaking the descending serve order (or planting a
  // non-finite score) with a valid CRC must reject the cache.
  const std::string bytes = ValidQuantizedArtifactBytes();
  const std::size_t score_offset = 8 + 4 + 1 + 8 + 4;
  for (double bad : {-1e300, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string corrupt = PatchPayloadWithValidCrc(
        bytes, kHotCacheSectionId, score_offset, &bad, sizeof(bad));
    const auto result = DeserializeModelArtifact(corrupt);
    ASSERT_FALSE(result.ok()) << "hot-cache score " << bad << " accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST(QuantizedArtifactRobustnessTest, CraftedCountsFailCleanly) {
  // Each crafted count wraps count · width in a bounds check that
  // multiplies (to 0 for sections 8, 10 and 11), which would pass and
  // let the allocation it guards throw std::length_error out of the
  // loader. With a recomputed CRC, every one must instead fail as a
  // diagnosed kIoError.
  constexpr std::uint64_t k61 = std::uint64_t{1} << 61;
  constexpr std::uint64_t k62 = std::uint64_t{1} << 62;
  struct Patch {
    std::size_t offset;
    std::uint64_t value;
  };
  struct Case {
    const char* what;
    std::string bytes;
    std::uint32_t section;
    std::vector<Patch> patches;
  };
  const std::string dense = ValidQuantizedArtifactBytes();
  const std::string sharded = ValidQuantizedShardedArtifactBytes();
  const Case cases[] = {
      // Section 8: bits (1), rows (8), cols (8) — 2^61 rows x 1 column.
      {"quantized scores", dense, kQuantizedScoresSectionId,
       {{1, k61}, {9, 1}}},
      // Section 9: index (8), user count (8), 3 users (12), bits (1),
      // then rows — 2^61 rows.
      {"quantized shard", sharded, kQuantizedShardSectionId, {{29, k61}}},
      // Section 10: bits (1), rows (8), upper nnz (8) — 2^62 rows with
      // 0 upper entries.
      {"quantized boundary", sharded, kQuantizedBoundarySectionId,
       {{1, k62}, {9, 0}}},
      // Section 11: row count (8), user (4), complete (1), then the
      // first row's entry count — 2^62 entries.
      {"hot cache", dense, kHotCacheSectionId, {{13, k62}}},
  };
  for (const Case& c : cases) {
    std::string corrupt = c.bytes;
    for (const Patch& patch : c.patches) {
      corrupt = PatchPayloadWithValidCrc(corrupt, c.section, patch.offset,
                                         &patch.value, sizeof(patch.value));
    }
    const auto result = DeserializeModelArtifact(corrupt);
    ASSERT_FALSE(result.ok()) << c.what << " accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kIoError)
        << c.what << ": " << result.status().ToString();
  }
}

// Replaces the payload of the first section `id` (its size and CRC
// rewritten to match), or appends a section `id` holding `payload` to a
// stream that has none.
std::string SpliceSection(std::string bytes, std::uint32_t id,
                          const std::string& payload) {
  std::string section;
  auto append = [&section](std::uint64_t value, std::size_t width) {
    for (std::size_t b = 0; b < width; ++b) {
      section.push_back(static_cast<char>((value >> (8 * b)) & 0xFF));
    }
  };
  append(id, 4);
  append(payload.size(), 8);
  section += payload;
  append(Crc32(payload.data(), payload.size()), 4);
  const auto [begin, size] = FindSectionPayload(bytes, id);
  if (begin == std::string::npos) {
    bytes[12] = static_cast<char>(bytes[12] + 1);
    return bytes + section;
  }
  return bytes.replace(begin - 12, 12 + size + 4, section);
}

// Little-endian u64 words, the layout of every count in the format.
std::string U64Words(std::initializer_list<std::uint64_t> words) {
  std::string out;
  for (const std::uint64_t word : words) {
    for (std::size_t b = 0; b < 8; ++b) {
      out.push_back(static_cast<char>((word >> (8 * b)) & 0xFF));
    }
  }
  return out;
}

TEST(ArtifactRobustnessTest, BoundaryNnzThatWrapsTheBoundFailsCleanly) {
  // A 1x1 boundary CSR claiming 2^63 entries: rows + 1 + 2·nnz wraps to
  // 2 words, which the two row pointers satisfy, and the column array
  // it then sized threw std::length_error out of the loader.
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::string corrupt =
      SpliceSection(SerializeModelArtifact(ValidShardedArtifact()),
                    /*id=*/7, U64Words({1, 1, k63, 0, k63}));
  const auto result = DeserializeModelArtifact(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("csr payload"), std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactRobustnessTest, TensorDimsSizeNothingBeforeTheirSlices) {
  // A lone adapted-tensor section holding dims (0, 2^40, 1): no slice
  // follows, yet the loader built a 2^40-row prototype slice and threw
  // std::bad_alloc. Now the stream is only missing its score sections.
  constexpr std::uint64_t k40 = std::uint64_t{1} << 40;
  const std::string valid = ValidArtifactBytes();
  std::string header = valid.substr(0, 16);
  header[12] = header[13] = header[14] = header[15] = 0;  // No sections.
  const auto lone = DeserializeModelArtifact(
      SpliceSection(header, /*id=*/3, U64Words({1, 0, k40, 1})));
  ASSERT_FALSE(lone.ok());
  EXPECT_EQ(lone.status().code(), StatusCode::kIoError);
  EXPECT_NE(lone.status().message().find("missing a required section"),
            std::string::npos)
      << lone.status().ToString();

  // The same dim1 on the valid tensor (2 slices of 4x4; the payload
  // starts with the tensor count, then dim0, dim1): the first slice's
  // own shape refutes it.
  const auto patched = DeserializeModelArtifact(PatchPayloadWithValidCrc(
      valid, /*id=*/3, /*payload_offset=*/16, &k40, sizeof(k40)));
  ASSERT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kIoError);
  EXPECT_NE(patched.status().message().find("tensor slice 0 has shape"),
            std::string::npos)
      << patched.status().ToString();
}

TEST(ArtifactRobustnessTest, FactoredUserCountOverTheCapFailsCleanly) {
  // Two (2^64 − 1)x0 factors hold no bytes, so they loaded as a model
  // of 2^64 − 1 users that quantize and serve-bench then tried to size.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto result = DeserializeModelArtifact(
      SpliceSection(ValidFactoredArtifactBytes(), kLowRankSectionId,
                    U64Words({kMax, 0, kMax, 0})));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("more than the cap"),
            std::string::npos)
      << result.status().ToString();
}

TEST(QuantizedArtifactRobustnessTest, ManifestUserCountMustMatchItsShards) {
  // Manifest payload: the user count (u64) comes first. A count the
  // shards do not add up to — 2^40 would size n-long arrays — is
  // rejected before anything is allocated from it, checksum or not.
  constexpr std::uint32_t kManifestSectionId = 5;
  for (const std::string& bytes :
       {SerializeModelArtifact(ValidShardedArtifact()),
        ValidQuantizedShardedArtifactBytes()}) {
    for (const std::uint64_t users :
         {std::uint64_t{1} << 40, std::uint64_t{7}}) {
      const std::string corrupt = PatchPayloadWithValidCrc(
          bytes, kManifestSectionId, 0, &users, sizeof(users));
      const auto result = DeserializeModelArtifact(corrupt);
      ASSERT_FALSE(result.ok()) << users << " users accepted";
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
      EXPECT_NE(result.status().message().find("manifest"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST(QuantizedArtifactRobustnessTest, QuantizedShardTruncationInsideBlock) {
  // A flip inside a quantized shard's code block trips that section's
  // CRC specifically.
  const std::string bytes = ValidQuantizedShardedArtifactBytes();
  const auto [begin, size] =
      FindSectionPayload(bytes, kQuantizedShardSectionId);
  ASSERT_NE(begin, std::string::npos);
  std::string corrupt = bytes;
  corrupt[begin + size - 1] =
      static_cast<char>(corrupt[begin + size - 1] ^ 0xFF);
  const auto result = DeserializeModelArtifact(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Backward-compat golden fixtures: tiny artifacts of every backend are
// committed under tests/data/ and must keep loading bit-exactly. Run
// with SLAMPRED_WRITE_GOLDEN=1 to regenerate after an INTENTIONAL
// format change (and bump kModelArtifactFormatVersion when doing so).

#ifndef SLAMPRED_TEST_DATA_DIR
#define SLAMPRED_TEST_DATA_DIR "tests/data"
#endif

std::string GoldenPath(const char* name) {
  return std::string(SLAMPRED_TEST_DATA_DIR) + "/" + name;
}

TEST(GoldenArtifactTest, WriterRegeneratesFixtures) {
  if (std::getenv("SLAMPRED_WRITE_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set SLAMPRED_WRITE_GOLDEN=1 to regenerate fixtures";
  }
  ASSERT_TRUE(WriteStringToFile(ValidArtifactBytes(),
                                GoldenPath("golden_dense_v1.slpmodel"))
                  .ok());
  ASSERT_TRUE(WriteStringToFile(ValidFactoredArtifactBytes(),
                                GoldenPath("golden_factored_v1.slpmodel"))
                  .ok());
  ASSERT_TRUE(
      WriteStringToFile(SerializeModelArtifact(ValidShardedArtifact()),
                        GoldenPath("golden_sharded_v1.slpmodel"))
          .ok());
  ASSERT_TRUE(WriteStringToFile(ValidQuantizedArtifactBytes(),
                                GoldenPath("golden_quantized_u8_v1.slpmodel"))
                  .ok());
  ASSERT_TRUE(
      WriteStringToFile(ValidQuantizedShardedArtifactBytes(),
                        GoldenPath("golden_quantized_sharded_u16_v1.slpmodel"))
          .ok());
  ASSERT_TRUE(
      WriteStringToFile(SerializeModelArtifact(ValidFactoredShardedArtifact()),
                        GoldenPath("golden_sharded_factored_v1.slpmodel"))
          .ok());
  ASSERT_TRUE(
      WriteStringToFile(ValidQuantizedFactoredArtifactBytes(),
                        GoldenPath("golden_quantized_factored_u8_v1.slpmodel"))
          .ok());
  ASSERT_TRUE(WriteStringToFile(
                  ValidQuantizedShardedArtifactBytes(QuantizationBits::kU8),
                  GoldenPath("golden_quantized_sharded_u8_v1.slpmodel"))
                  .ok());
  ASSERT_TRUE(
      WriteStringToFile(ValidQuantizedArtifactBytes(QuantizationBits::kU16),
                        GoldenPath("golden_quantized_u16_v1.slpmodel"))
          .ok());
}

// Reads the committed fixture `name` and checks that today's writer
// still produces exactly those bytes (`written`) and that parse →
// re-serialize is the identity on them. Returns the parsed artifact.
Result<ModelArtifact> LoadFixtureBitExact(const char* name,
                                          const std::string& written) {
  auto bytes = ReadFileToString(GoldenPath(name));
  if (!bytes.ok()) return bytes.status();
  EXPECT_EQ(bytes.value(), written) << name;
  auto artifact = DeserializeModelArtifact(bytes.value());
  if (!artifact.ok()) return artifact.status();
  EXPECT_EQ(SerializeModelArtifact(artifact.value()), bytes.value()) << name;
  return artifact;
}

TEST(GoldenArtifactTest, DenseFixtureLoadsBitExact) {
  auto bytes = ReadFileToString(GoldenPath("golden_dense_v1.slpmodel"));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto artifact = DeserializeModelArtifact(bytes.value());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // The committed fixture is exactly what today's writer produces.
  EXPECT_EQ(bytes.value(), ValidArtifactBytes());
  EXPECT_EQ(SerializeModelArtifact(artifact.value()), bytes.value());
  const ModelArtifact oracle = ValidArtifact();
  ASSERT_NE(StoredAs<Matrix>(artifact.value().scores), nullptr);
  EXPECT_EQ(*StoredAs<Matrix>(artifact.value().scores),
            *StoredAs<Matrix>(oracle.scores));
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().ScoreUnchecked(1, 2), 0.25 + 0.25);
}

TEST(GoldenArtifactTest, FactoredFixtureLoadsBitExact) {
  auto bytes = ReadFileToString(GoldenPath("golden_factored_v1.slpmodel"));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), ValidFactoredArtifactBytes());
  auto artifact = DeserializeModelArtifact(bytes.value());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(SerializeModelArtifact(artifact.value()), bytes.value());
  EXPECT_NE(StoredAs<FactoredMatrix>(artifact.value().scores), nullptr);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());
  EXPECT_NE(StoredAs<FactoredMatrix>(session.value().artifact().scores),
            nullptr);
}

TEST(GoldenArtifactTest, ShardedFixtureLoadsBitExact) {
  auto bytes = ReadFileToString(GoldenPath("golden_sharded_v1.slpmodel"));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), SerializeModelArtifact(ValidShardedArtifact()));
  auto artifact = DeserializeModelArtifact(bytes.value());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(SerializeModelArtifact(artifact.value()), bytes.value());
  ASSERT_NE(ShardedOf(artifact.value().scores), nullptr);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const ModelArtifact oracle = ValidShardedArtifact();
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_EQ(session.value().Score(u, v).value(), oracle.scores->At(u, v));
    }
  }
}

TEST(GoldenArtifactTest, QuantizedShardedFixtureLoadsBitExactAndReserializes) {
  auto artifact =
      LoadFixtureBitExact("golden_quantized_sharded_u16_v1.slpmodel",
                          ValidQuantizedShardedArtifactBytes());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().hot_rows.size(), 1u);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // u16 codes sit within half a code step of the float scores.
  const ModelArtifact oracle = ValidShardedArtifact();
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_NEAR(session.value().Score(u, v).value(),
                  oracle.scores->At(u, v), 1e-4);
    }
  }
}

TEST(GoldenArtifactTest, FactoredShardedFixtureLoadsBitExactAndReserializes) {
  const ModelArtifact oracle = ValidFactoredShardedArtifact();
  auto artifact = LoadFixtureBitExact("golden_sharded_factored_v1.slpmodel",
                                      SerializeModelArtifact(oracle));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (std::size_t u = 0; u < 5; ++u) {
    for (std::size_t v = 0; v < 5; ++v) {
      EXPECT_EQ(session.value().Score(u, v).value(), oracle.scores->At(u, v));
    }
  }
}

TEST(GoldenArtifactTest,
     QuantizedFactoredFixtureLoadsBitExactAndReserializes) {
  auto artifact =
      LoadFixtureBitExact("golden_quantized_factored_u8_v1.slpmodel",
                          ValidQuantizedFactoredArtifactBytes());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().hot_rows.size(), 2u);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // u8 codes sit within half a code step (row range / 510 <= 0.006
  // here) of the factored scores.
  auto factored = ScoringSession::FromArtifact(
      DeserializeModelArtifact(ValidFactoredArtifactBytes()).value());
  ASSERT_TRUE(factored.ok());
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t v = 0; v < 4; ++v) {
      EXPECT_NEAR(session.value().Score(u, v).value(),
                  factored.value().Score(u, v).value(), 0.01);
    }
  }
}

TEST(GoldenArtifactTest, QuantizedFixtureLoadsBitExactAndReserializes) {
  auto bytes = ReadFileToString(GoldenPath("golden_quantized_u8_v1.slpmodel"));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  // Today's quantizer reproduces the committed bytes exactly...
  EXPECT_EQ(bytes.value(), ValidQuantizedArtifactBytes());
  auto artifact = DeserializeModelArtifact(bytes.value());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // ...and a quantized artifact written today re-loads bit-exact:
  // parse → re-serialize is the identity on the byte stream.
  EXPECT_EQ(SerializeModelArtifact(artifact.value()), bytes.value());
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok());
  EXPECT_NE(StoredAs<QuantizedMatrix>(session.value().artifact().scores),
            nullptr);
}

// The u8 blocks and u8 boundary a quantized partitioned fit serves.
TEST(GoldenArtifactTest,
     QuantizedU8ShardedFixtureLoadsBitExactAndReserializes) {
  auto artifact =
      LoadFixtureBitExact("golden_quantized_sharded_u8_v1.slpmodel",
                          ValidQuantizedShardedArtifactBytes(
                              QuantizationBits::kU8));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().hot_rows.size(), 1u);
  const ShardedScores* shards = ShardedOf(artifact.value().scores);
  ASSERT_NE(shards, nullptr);
  const auto* boundary = StoredAs<QuantizedSymmetricCsr>(shards->boundary());
  ASSERT_NE(boundary, nullptr);
  EXPECT_EQ(boundary->bits(), QuantizationBits::kU8);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // u8 codes sit within half a code step (row range / 510 < 0.002
  // here) of the float scores, and the served matrix stays symmetric.
  const ModelArtifact oracle = ValidShardedArtifact();
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_NEAR(session.value().Score(u, v).value(),
                  oracle.scores->At(u, v), 0.005);
      EXPECT_EQ(session.value().Score(u, v).value(),
                session.value().Score(v, u).value());
    }
  }
}

// Full rows at u16: the dense form at the wide code width.
TEST(GoldenArtifactTest, QuantizedU16FixtureLoadsBitExactAndReserializes) {
  auto artifact =
      LoadFixtureBitExact("golden_quantized_u16_v1.slpmodel",
                          ValidQuantizedArtifactBytes(QuantizationBits::kU16));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().hot_rows.size(), 2u);
  const auto* quantized = StoredAs<QuantizedMatrix>(artifact.value().scores);
  ASSERT_NE(quantized, nullptr);
  EXPECT_EQ(quantized->bits(), QuantizationBits::kU16);
  auto session = ScoringSession::FromArtifact(std::move(artifact).value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const ModelArtifact oracle = ValidArtifact();
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t v = 0; v < 4; ++v) {
      EXPECT_NEAR(session.value().Score(u, v).value(),
                  oracle.scores->At(u, v), 1e-4);
    }
  }
}

}  // namespace
}  // namespace slampred
