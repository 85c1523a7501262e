// Property-based bounded-error harness for the quantized score storage
// (DESIGN.md §15). Every quantized-serving claim the CLI and bench legs
// make is gated here:
//
//   * per-element round-trip error of quant→dequant is bounded by half
//     a row scale (plus floating-point slack orders of magnitude below
//     one code step) for u8 and u16, across uniform, power-law,
//     constant, all-negative and all-zero rows;
//   * re-quantizing a dequantized matrix reproduces the identical codes
//     and offsets, and is fully idempotent (codes, offsets AND scales
//     bit-equal) on a representable grid;
//   * NaN / ±inf input is rejected with a Status, never encoded;
//   * quantization is bit-identical at 1, 2 and 7 threads;
//   * Serialize/Deserialize round-trips bit-exactly, and a corrupt
//     scale or offset vector is rejected — never mis-dequantized.
//
// The symmetric variants (QuantizedSymmetricDense shard blocks and the
// QuantizedSymmetricCsr boundary) additionally guarantee bitwise
// symmetry At(i, j) == At(j, i) and reject asymmetric input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/quantized_matrix.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace slampred {
namespace {

// SplitMix64 — deterministic and platform-stable, so every property
// here checks the same matrices on every machine.
std::uint64_t NextRandom(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double UniformDouble(std::uint64_t& state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

// A matrix mixing every row shape the serving payloads produce:
// uniform rows in [-5, 5), heavy-tailed power-law rows, an
// all-negative row, a constant row and an all-zero (empty) row.
Matrix MixedMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t kind = i % 5;
    for (std::size_t j = 0; j < cols; ++j) {
      const double u = UniformDouble(state);
      switch (kind) {
        case 0:  // Uniform.
          m(i, j) = -5.0 + 10.0 * u;
          break;
        case 1:  // Power-law: most mass near 0, a heavy right tail.
          m(i, j) = 10.0 * u * u * u * u;
          break;
        case 2:  // All-negative.
          m(i, j) = -3.0 + 2.0 * u;
          break;
        case 3:  // Constant row.
          m(i, j) = 1.25;
          break;
        default:  // Empty (all-zero) row.
          m(i, j) = 0.0;
          break;
      }
    }
  }
  return m;
}

// Symmetric variant of MixedMatrix (upper triangle mirrored down).
Matrix SymmetricMixedMatrix(std::size_t n, std::uint64_t seed) {
  Matrix m = MixedMatrix(n, n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) m(j, i) = m(i, j);
  }
  return m;
}

// The bounded-error contract: |original − dequantized| per element is
// at most half a code step, plus floating-point slack far below a step
// (relative error of the scaled subtraction and reconstruction).
void ExpectRoundTripBounded(const Matrix& m, const QuantizedMatrix& q) {
  ASSERT_EQ(q.rows(), m.rows());
  ASSERT_EQ(q.cols(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double scale = q.scales()[i];
    const double range =
        scale * static_cast<double>(QuantizationLevels(q.bits()));
    const double bound =
        0.5 * scale + 1e-9 * range + 1e-12 * (std::fabs(q.offsets()[i]) + 1.0);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_LE(std::fabs(m(i, j) - q.At(i, j)), bound)
          << "(" << i << ", " << j << ") original " << m(i, j)
          << " dequantized " << q.At(i, j) << " scale " << scale;
    }
  }
}

TEST(QuantizationTest, RoundTripErrorBoundedU8) {
  for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const Matrix m = MixedMatrix(15, 33, seed);
    auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU8);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ExpectRoundTripBounded(m, q.value());
  }
}

TEST(QuantizationTest, RoundTripErrorBoundedU16) {
  for (std::uint64_t seed : {2ull, 99ull, 424242ull}) {
    const Matrix m = MixedMatrix(15, 33, seed);
    auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU16);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ExpectRoundTripBounded(m, q.value());
    // u16 steps are 257x finer than u8 on the same rows.
    auto q8 = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU8);
    ASSERT_TRUE(q8.ok());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      EXPECT_LE(q.value().scales()[i] * 250.0, q8.value().scales()[i] + 1e-300);
    }
  }
}

TEST(QuantizationTest, ConstantAndZeroRowsRoundTripExactly) {
  const Matrix m = MixedMatrix(10, 16, 5);
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    auto q = QuantizedMatrix::FromMatrix(m, bits);
    ASSERT_TRUE(q.ok());
    for (std::size_t i = 3; i < 10; i += 5) {  // Constant rows (kind 3).
      EXPECT_EQ(q.value().scales()[i], 0.0);
      for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(q.value().At(i, j), 1.25);
    }
    for (std::size_t i = 4; i < 10; i += 5) {  // All-zero rows (kind 4).
      EXPECT_EQ(q.value().scales()[i], 0.0);
      for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(q.value().At(i, j), 0.0);
    }
  }
}

TEST(QuantizationTest, EmptyMatrixRoundTrips) {
  auto q = QuantizedMatrix::FromMatrix(Matrix(), QuantizationBits::kU8);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().empty());
  EXPECT_TRUE(q.value().Validate().ok());
}

TEST(QuantizationTest, RejectsNaN) {
  Matrix m = MixedMatrix(4, 4, 11);
  m(2, 1) = std::numeric_limits<double>::quiet_NaN();
  const auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU8);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find("row 2"), std::string::npos);
}

TEST(QuantizationTest, RejectsInfinity) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix m = MixedMatrix(4, 4, 13);
    m(0, 3) = bad;
    const auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU16);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QuantizationTest, RequantizationReproducesCodesExactly) {
  // Quantizing the dequantized matrix lands every value back on its
  // own code: codes and offsets are reproduced bit-for-bit (scales can
  // legitimately differ by an ulp when the row range is not exactly
  // representable, which the grid test below pins down).
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    const Matrix m = MixedMatrix(15, 21, 17);
    auto q = QuantizedMatrix::FromMatrix(m, bits);
    ASSERT_TRUE(q.ok());
    auto q2 = QuantizedMatrix::FromMatrix(q.value().ToDense(), bits);
    ASSERT_TRUE(q2.ok());
    EXPECT_EQ(q2.value().offsets(), q.value().offsets());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        ASSERT_EQ(q2.value().CodeAt(i, j), q.value().CodeAt(i, j))
            << "(" << i << ", " << j << ")";
      }
    }
  }
}

TEST(QuantizationTest, RequantizationIsIdempotentOnRepresentableGrid) {
  // Rows whose scale is a power of two and whose range spans the full
  // code book are exactly representable end to end: quantizing the
  // dequantized matrix is a bit-exact fixed point (codes, offsets AND
  // scales), and the first round trip is already lossless.
  const double scale = 0x1.0p-6;
  std::uint64_t state = 23;
  Matrix m(6, 12);
  for (std::size_t i = 0; i < 6; ++i) {
    m(i, 0) = 0.5;                  // Code 0 — the row offset.
    m(i, 1) = 0.5 + 255.0 * scale;  // Code 255 — pins the range.
    for (std::size_t j = 2; j < 12; ++j) {
      m(i, j) = 0.5 + static_cast<double>(NextRandom(state) % 256) * scale;
    }
  }
  auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU8);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().ToDense(), m);  // Lossless on the grid.
  auto q2 = QuantizedMatrix::FromMatrix(q.value().ToDense(),
                                        QuantizationBits::kU8);
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2.value() == q.value());
}

TEST(QuantizationTest, BitIdenticalAcrossThreadCounts) {
  const Matrix m = MixedMatrix(40, 64, 29);
  ThreadPool& pool = ThreadPool::Global();
  const std::size_t restore = pool.num_threads();
  std::vector<QuantizedMatrix> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    pool.Resize(threads);
    auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU16);
    ASSERT_TRUE(q.ok());
    results.push_back(std::move(q).value());
  }
  pool.Resize(restore);
  EXPECT_TRUE(results[1] == results[0]);
  EXPECT_TRUE(results[2] == results[0]);
}

TEST(QuantizationTest, SerializeRoundTripsBitExact) {
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    const Matrix m = MixedMatrix(9, 14, 31);
    auto q = QuantizedMatrix::FromMatrix(m, bits);
    ASSERT_TRUE(q.ok());
    BinaryWriter writer;
    q.value().Serialize(writer);
    BinaryReader reader(writer.buffer());
    auto back = QuantizedMatrix::Deserialize(reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back.value() == q.value());
    EXPECT_TRUE(reader.AtEnd());
    // Re-serializing the loaded matrix reproduces the exact bytes.
    BinaryWriter again;
    back.value().Serialize(again);
    EXPECT_EQ(again.buffer(), writer.buffer());
  }
}

TEST(QuantizationTest, CorruptScaleIsRejectedNotMisdequantized) {
  const Matrix m = MixedMatrix(5, 8, 37);
  auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU8);
  ASSERT_TRUE(q.ok());
  BinaryWriter writer;
  q.value().Serialize(writer);
  // Scales start after bits (1) + rows (8) + cols (8) + offsets (5·8).
  const std::size_t scale_offset = 1 + 8 + 8 + 5 * 8;
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::string bytes = writer.buffer();
    std::memcpy(&bytes[scale_offset], &bad, sizeof(double));
    BinaryReader reader(bytes);
    const auto result = QuantizedMatrix::Deserialize(reader);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    EXPECT_NE(result.status().message().find("scale"), std::string::npos);
  }
  // A corrupt offset is equally fatal.
  std::string bytes = writer.buffer();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&bytes[1 + 8 + 8], &nan, sizeof(double));
  BinaryReader reader(bytes);
  EXPECT_FALSE(QuantizedMatrix::Deserialize(reader).ok());
}

TEST(QuantizationTest, TruncatedStreamsAreRejected) {
  const Matrix m = MixedMatrix(5, 5, 41);
  auto q = QuantizedMatrix::FromMatrix(m, QuantizationBits::kU16);
  ASSERT_TRUE(q.ok());
  BinaryWriter writer;
  q.value().Serialize(writer);
  const std::string& bytes = writer.buffer();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    BinaryReader reader(prefix);
    const auto result = QuantizedMatrix::Deserialize(reader);
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(QuantizationTest, SymmetricBlockRoundTripBoundedAndBitwiseSymmetric) {
  const Matrix m = SymmetricMixedMatrix(12, 43);
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    auto q = QuantizedSymmetricDense::FromMatrix(m, bits);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    for (std::size_t i = 0; i < 12; ++i) {
      // Row i's parameters cover the canonical segment j >= i.
      const double scale = q.value().scales()[i];
      const double range =
          scale * static_cast<double>(QuantizationLevels(bits));
      const double bound = 0.5 * scale + 1e-9 * range +
                           1e-12 * (std::fabs(q.value().offsets()[i]) + 1.0);
      for (std::size_t j = i; j < 12; ++j) {
        EXPECT_LE(std::fabs(m(i, j) - q.value().At(i, j)), bound);
      }
      for (std::size_t j = 0; j < 12; ++j) {
        EXPECT_EQ(q.value().At(i, j), q.value().At(j, i));
      }
    }
  }
}

TEST(QuantizationTest, SymmetricBlockRejectsAsymmetry) {
  Matrix m = SymmetricMixedMatrix(6, 47);
  m(1, 4) += 0.5;  // Break symmetry well beyond ulp noise.
  const auto q = QuantizedSymmetricDense::FromMatrix(m, QuantizationBits::kU8);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find("not symmetric"), std::string::npos);
}

TEST(QuantizationTest, SymmetricBlockSerializeRoundTrip) {
  const Matrix m = SymmetricMixedMatrix(9, 53);
  auto q = QuantizedSymmetricDense::FromMatrix(m, QuantizationBits::kU16);
  ASSERT_TRUE(q.ok());
  BinaryWriter writer;
  q.value().Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = QuantizedSymmetricDense::Deserialize(reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == q.value());
  EXPECT_TRUE(reader.AtEnd());
}

// A symmetric sparse matrix with cross-pattern entries (deterministic).
CsrMatrix SymmetricSparse(std::size_t n, std::uint64_t seed) {
  Matrix dense(n, n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (NextRandom(state) % 4 == 0) {
        const double v = -2.0 + 4.0 * UniformDouble(state);
        dense(i, j) = v;
        dense(j, i) = v;
      }
    }
  }
  return CsrMatrix::FromDense(dense);
}

TEST(QuantizationTest, SymmetricCsrRoundTripBoundedAndBitwiseSymmetric) {
  const CsrMatrix csr = SymmetricSparse(20, 59);
  const Matrix dense = csr.ToDense();
  for (QuantizationBits bits :
       {QuantizationBits::kU8, QuantizationBits::kU16}) {
    auto q = QuantizedSymmetricCsr::FromCsr(csr, bits);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().nnz(), csr.nnz());
    for (std::size_t u = 0; u < 20; ++u) {
      for (std::size_t v = 0; v < 20; ++v) {
        EXPECT_EQ(q.value().At(u, v), q.value().At(v, u));
        if (dense(u, v) == 0.0) continue;
        const std::size_t basis = std::min(u, v);
        const double scale = q.value().scales()[basis];
        const double range =
            scale * static_cast<double>(QuantizationLevels(bits));
        const double bound =
            0.5 * scale + 1e-9 * range +
            1e-12 * (std::fabs(q.value().offsets()[basis]) + 1.0);
        EXPECT_LE(std::fabs(dense(u, v) - q.value().At(u, v)), bound);
      }
    }
  }
}

TEST(QuantizationTest, SymmetricCsrRejectsAsymmetricValues) {
  Matrix dense(4, 4);
  dense(0, 2) = 1.0;
  dense(2, 0) = 1.0 + 1e-3;  // Pattern symmetric, values not.
  const auto q = QuantizedSymmetricCsr::FromCsr(CsrMatrix::FromDense(dense),
                                                QuantizationBits::kU8);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(QuantizationTest, SymmetricCsrSerializeRoundTripAndCorruptScale) {
  const CsrMatrix csr = SymmetricSparse(14, 61);
  auto q = QuantizedSymmetricCsr::FromCsr(csr, QuantizationBits::kU8);
  ASSERT_TRUE(q.ok());
  BinaryWriter writer;
  q.value().Serialize(writer);
  BinaryReader reader(writer.buffer());
  auto back = QuantizedSymmetricCsr::Deserialize(reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == q.value());
  EXPECT_TRUE(reader.AtEnd());

  // Scales start after bits (1) + rows (8) + upper nnz (8) + offsets.
  std::string bytes = writer.buffer();
  const double bad = -0.25;
  std::memcpy(&bytes[1 + 8 + 8 + 14 * 8], &bad, sizeof(double));
  BinaryReader corrupt(bytes);
  const auto result = QuantizedSymmetricCsr::Deserialize(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("scale"), std::string::npos);
}

}  // namespace
}  // namespace slampred
