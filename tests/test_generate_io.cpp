/**
 * @file
 * Tests for the synthetic matrix generators (structural properties,
 * density targets, determinism) and Matrix Market I/O round trips.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "features/features.hh"
#include "sparse/generate.hh"
#include "sparse/io.hh"
#include "sparse/convert.hh"

namespace misam {
namespace {

// --------------------------------------------------------------------
// generators
// --------------------------------------------------------------------

class UniformDensity : public testing::TestWithParam<double>
{
};

TEST_P(UniformDensity, HitsTargetDensity)
{
    const double target = GetParam();
    Rng rng(42);
    const CsrMatrix m = generateUniform(400, 400, target, rng);
    EXPECT_NEAR(m.density(), target, std::max(0.01, target * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UniformDensity,
                         testing::Values(0.01, 0.05, 0.1, 0.3, 0.6, 0.9));

TEST(Generate, UniformDeterministicPerSeed)
{
    Rng r1(5), r2(5);
    const CsrMatrix a = generateUniform(64, 64, 0.2, r1);
    const CsrMatrix b = generateUniform(64, 64, 0.2, r2);
    EXPECT_EQ(a, b);
}

TEST(Generate, UniformDifferentSeedsDiffer)
{
    Rng r1(5), r2(6);
    const CsrMatrix a = generateUniform(64, 64, 0.2, r1);
    const CsrMatrix b = generateUniform(64, 64, 0.2, r2);
    EXPECT_NE(a, b);
}

TEST(Generate, UniformZeroDensityEmpty)
{
    Rng rng(7);
    const CsrMatrix m = generateUniform(50, 50, 0.0, rng);
    EXPECT_EQ(m.nnz(), 0u);
}

TEST(GenerateDeath, UniformRejectsBadDensity)
{
    Rng rng(8);
    EXPECT_EXIT(generateUniform(10, 10, 1.5, rng),
                testing::ExitedWithCode(1), "density");
}

TEST(Generate, BandedStaysInBand)
{
    Rng rng(9);
    const Index bw = 5;
    const CsrMatrix m = generateBanded(100, 100, bw, 0.8, rng);
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c : m.rowCols(r))
            EXPECT_LE(std::abs(static_cast<long>(r) -
                               static_cast<long>(c)),
                      static_cast<long>(bw));
    EXPECT_GT(m.nnz(), 0u);
}

TEST(Generate, BandedDiagonalAlwaysPresent)
{
    Rng rng(10);
    const CsrMatrix m = generateBanded(60, 60, 3, 0.0, rng);
    EXPECT_EQ(m.nnz(), 60u); // only the mandatory diagonal
}

TEST(Generate, BandedRectangularScalesBand)
{
    Rng rng(11);
    const CsrMatrix m = generateBanded(50, 100, 4, 0.9, rng);
    EXPECT_EQ(m.rows(), 50u);
    EXPECT_EQ(m.cols(), 100u);
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c : m.rowCols(r))
            EXPECT_LE(std::abs(static_cast<long>(c) -
                               static_cast<long>(r) * 2),
                      4L);
}

TEST(Generate, BlockDiagonalConcentratesOnBlocks)
{
    Rng rng(12);
    const CsrMatrix m =
        generateBlockDiagonal(128, 128, 16, 0.8, 0.0, rng);
    // Every entry must fall inside its 16x16 diagonal block.
    for (Index r = 0; r < m.rows(); ++r) {
        const Index rb = (r / 16) * 16;
        for (Index c : m.rowCols(r)) {
            EXPECT_GE(c, rb);
            EXPECT_LT(c, rb + 16);
        }
    }
}

TEST(Generate, BlockDiagonalBackgroundAddsOffBlock)
{
    Rng rng(13);
    const CsrMatrix with_bg =
        generateBlockDiagonal(128, 128, 16, 0.5, 0.02, rng);
    bool off_block = false;
    for (Index r = 0; r < with_bg.rows() && !off_block; ++r) {
        const Index rb = (r / 16) * 16;
        for (Index c : with_bg.rowCols(r))
            if (c < rb || c >= rb + 16)
                off_block = true;
    }
    EXPECT_TRUE(off_block);
}

TEST(Generate, PowerLawHitsNnzTarget)
{
    Rng rng(14);
    const CsrMatrix m = generatePowerLawGraph(2000, 20000, 2.1, rng);
    EXPECT_EQ(m.rows(), 2000u);
    EXPECT_EQ(m.cols(), 2000u);
    // Duplicate collapses lose a few percent.
    EXPECT_GT(m.nnz(), 14000u);
    EXPECT_LT(m.nnz(), 24000u);
}

TEST(Generate, PowerLawMoreImbalancedThanUniform)
{
    Rng rng(15);
    const CsrMatrix pl = generatePowerLawGraph(1000, 10000, 2.1, rng);
    const CsrMatrix un = generateUniform(1000, 1000, 0.01, rng);
    const MatrixStats spl = computeMatrixStats(pl);
    const MatrixStats sun = computeMatrixStats(un);
    EXPECT_GT(spl.row.imbalance, sun.row.imbalance);
    EXPECT_GT(spl.col.imbalance, sun.col.imbalance);
}

TEST(Generate, RowImbalancedHasHotRows)
{
    Rng rng(16);
    const CsrMatrix m =
        generateRowImbalanced(500, 500, 0.02, 0.02, 12.0, rng);
    const MatrixStats s = computeMatrixStats(m);
    EXPECT_GT(s.row.imbalance, 6.0);
    EXPECT_NEAR(m.density(), 0.02, 0.006);
}

TEST(GenerateDeath, RowImbalancedValidatesParams)
{
    Rng rng(17);
    EXPECT_EXIT(generateRowImbalanced(10, 10, 0.1, 0.0, 5.0, rng),
                testing::ExitedWithCode(1), "hot_fraction");
    EXPECT_EXIT(generateRowImbalanced(10, 10, 0.1, 0.1, 0.5, rng),
                testing::ExitedWithCode(1), "imbalance");
}

TEST(Generate, DiagonalExactStructure)
{
    Rng rng(18);
    const CsrMatrix m = generateDiagonal(32, rng);
    EXPECT_EQ(m.nnz(), 32u);
    for (Index r = 0; r < 32; ++r) {
        ASSERT_EQ(m.rowNnz(r), 1u);
        EXPECT_EQ(m.rowCols(r)[0], r);
    }
}

TEST(Generate, StructuredPrunedBlockAligned)
{
    Rng rng(19);
    const CsrMatrix m = generateStructuredPruned(64, 64, 0.3, 8, rng);
    // Every kept 8x8 block must be fully dense: check that within each
    // block, either all 64 or none of the positions are present.
    for (Index rb = 0; rb < 64; rb += 8) {
        for (Index cb = 0; cb < 64; cb += 8) {
            int count = 0;
            for (Index r = rb; r < rb + 8; ++r)
                for (Index c : m.rowCols(r))
                    if (c >= cb && c < cb + 8)
                        ++count;
            EXPECT_TRUE(count == 0 || count == 64)
                << "block (" << rb << "," << cb << ") has " << count;
        }
    }
}

TEST(Generate, StructuredPrunedDensityApproximate)
{
    Rng rng(20);
    const CsrMatrix m = generateStructuredPruned(256, 256, 0.2, 8, rng);
    EXPECT_NEAR(m.density(), 0.2, 0.05);
}

TEST(Generate, DenseCsrFullyPopulated)
{
    Rng rng(21);
    const CsrMatrix m = generateDenseCsr(10, 20, rng);
    EXPECT_EQ(m.nnz(), 200u);
    EXPECT_DOUBLE_EQ(m.density(), 1.0);
}

TEST(Generate, DenseMatrixNoZeros)
{
    Rng rng(22);
    const DenseMatrix m = generateDense(16, 16, rng);
    EXPECT_EQ(m.countNonzeros(), 256u);
}

// --------------------------------------------------------------------
// Matrix Market I/O
// --------------------------------------------------------------------

TEST(MatrixMarket, WriteReadRoundTrip)
{
    Rng rng(30);
    const CsrMatrix a = generateUniform(40, 30, 0.15, rng);
    std::stringstream ss;
    writeMatrixMarket(ss, a);
    const CsrMatrix b = cooToCsr(readMatrixMarket(ss));
    EXPECT_TRUE(a == b);

    // Each of these needs all 17 significant digits to survive.
    const CsrMatrix exact(2, 4, {0, 3, 5}, {0, 1, 3, 1, 2},
                          {0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0,
                           6.02214076e23 / 7.0, 2.2250738585072011e-308});
    std::stringstream text;
    writeMatrixMarket(text, exact);
    EXPECT_TRUE(exact == cooToCsr(readMatrixMarket(text))) << text.str();
}

TEST(MatrixMarket, FileAndStreamReadersAgree)
{
    Rng rng(31);
    const CsrMatrix a = generateUniform(64, 48, 0.1, rng);
    const std::string path =
        testing::TempDir() + "misam_file_and_stream_readers_agree.mtx";
    writeMatrixMarketFile(path, a);
    std::ifstream in(path);
    const CooMatrix from_stream = readMatrixMarket(in);
    const CooMatrix from_file = readMatrixMarketFile(path);
    std::filesystem::remove(path);
    EXPECT_TRUE(cooToCsr(from_file) == a);
    EXPECT_TRUE(cooToCsr(from_stream) == a);
}

TEST(MatrixMarket, ParsesGeneralReal)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                         "% comment line\n"
                         "2 3 2\n"
                         "1 1 1.5\n"
                         "2 3 -2.0\n");
    const CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), 2u);
    EXPECT_EQ(coo.cols(), 3u);
    EXPECT_EQ(coo.nnz(), 2u);
    EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.5);
}

TEST(MatrixMarket, ExpandsSymmetric)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 4.0\n"
        "3 3 5.0\n");
    const CooMatrix coo = readMatrixMarket(ss);
    // (2,1) mirrors to (1,2); the diagonal entry does not duplicate.
    EXPECT_EQ(coo.nnz(), 3u);
}

TEST(MatrixMarket, PatternDefaultsToOne)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 1\n"
        "1 2\n");
    const CooMatrix coo = readMatrixMarket(ss);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.0);
}

TEST(MatrixMarketDeath, RejectsMissingBanner)
{
    std::stringstream ss("not a matrix market file\n1 1 0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "banner");
}

TEST(MatrixMarketDeath, RejectsUnsupportedField)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "unsupported field");
}

TEST(MatrixMarketDeath, RejectsOutOfRangeIndex)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "out of range");
}

TEST(MatrixMarketDeath, RejectsTruncatedEntries)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "truncated");
}

TEST(MatrixMarketDeath, MissingFileFails)
{
    EXPECT_EXIT(readMatrixMarketFile("/nonexistent/path.mtx"),
                testing::ExitedWithCode(1), "cannot open");
}

// --------------------------------------------------------------------
// Matrix Market token contract. Every row below is the outcome of
// reading the file with `std::istream >>` extraction in the "C" locale:
// accepted with this exact bit pattern, or fatal. The buffered reader
// must match each one.
// --------------------------------------------------------------------

/** A 1x1 real general file whose only value is `token`. */
std::string
oneValueFile(const std::string &token)
{
    return "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 " +
           token + "\n";
}

/** A 2x2 real general file whose one entry has row index `token`. */
std::string
oneIndexFile(const std::string &token)
{
    return "%%MatrixMarket matrix coordinate real general\n2 2 1\n" +
           token + " 1 1.0\n";
}

struct AcceptedValue
{
    const char *token;
    std::uint64_t bits;
};

class MatrixMarketValueToken : public testing::TestWithParam<AcceptedValue>
{
};

TEST_P(MatrixMarketValueToken, ParsesToIstreamBits)
{
    std::stringstream ss(oneValueFile(GetParam().token));
    const CooMatrix coo = readMatrixMarket(ss);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(coo.entries()[0].value),
              GetParam().bits);
}

INSTANTIATE_TEST_SUITE_P(
    Istream, MatrixMarketValueToken,
    testing::Values(
        AcceptedValue{"+1.5", 0x3ff8000000000000},
        AcceptedValue{"-0", 0x8000000000000000},
        AcceptedValue{"-0.0", 0x8000000000000000},
        AcceptedValue{" .5", 0x3fe0000000000000},
        AcceptedValue{"+.5", 0x3fe0000000000000},
        AcceptedValue{"-.5", 0xbfe0000000000000},
        AcceptedValue{"1.", 0x3ff0000000000000},
        AcceptedValue{"1.e5", 0x40f86a0000000000},
        AcceptedValue{"1E5", 0x40f86a0000000000},
        AcceptedValue{"1e+5", 0x40f86a0000000000},
        AcceptedValue{"-1E-05", 0xbee4f8b588e368f1},
        AcceptedValue{"00012", 0x4028000000000000},
        AcceptedValue{"0.1", 0x3fb999999999999a},
        AcceptedValue{"0.30000000000000004", 0x3fd3333333333334},
        AcceptedValue{"9007199254740993", 0x4340000000000000},
        AcceptedValue{"123456789012345678901234567890",
                      0x45f8ee90ff6c373e},
        AcceptedValue{"1.7976931348623157e308", 0x7fefffffffffffff},
        AcceptedValue{"2.2250738585072011e-308", 0x000fffffffffffff},
        AcceptedValue{"1e-310", 0x000012688b70e62b},
        AcceptedValue{"4.9e-324", 0x0000000000000001},
        AcceptedValue{"2.5e-324", 0x0000000000000001},
        // Underflow rounds to a signed zero instead of failing.
        AcceptedValue{"2e-324", 0x0000000000000000},
        AcceptedValue{"1e-400", 0x0000000000000000},
        AcceptedValue{"-1e-400", 0x8000000000000000},
        // Reading stops at the first character that cannot extend the
        // number; the rest of a one-entry file is never read.
        AcceptedValue{"1e5e3", 0x40f86a0000000000},
        AcceptedValue{"1e5.5", 0x40f86a0000000000},
        AcceptedValue{"1.5.3", 0x3ff8000000000000},
        AcceptedValue{"1,5", 0x3ff0000000000000},
        AcceptedValue{"1.5abc", 0x3ff8000000000000},
        AcceptedValue{"0x1p3", 0x0000000000000000}));

class MatrixMarketValueTokenDeath : public testing::TestWithParam<const char *>
{
};

TEST_P(MatrixMarketValueTokenDeath, IsFatal)
{
    std::stringstream ss(oneValueFile(GetParam()));
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "missing value at entry 0");
}

INSTANTIATE_TEST_SUITE_P(
    Istream, MatrixMarketValueTokenDeath,
    testing::Values("inf", "-inf", "+inf", "infinity", "nan", "NaN", "1e",
                    "1e+", "1e-", "e5", ".e5", ".", "+", "-", "+-1", "--1",
                    "1e400", "-1e400", "1.7976931348623159e308"));

class MatrixMarketIndexToken : public testing::TestWithParam<const char *>
{
};

TEST_P(MatrixMarketIndexToken, ParsesAsRowOne)
{
    std::stringstream ss(oneIndexFile(GetParam()));
    const CooMatrix coo = readMatrixMarket(ss);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_EQ(coo.entries()[0].row, 0u);
}

INSTANTIATE_TEST_SUITE_P(Istream, MatrixMarketIndexToken,
                         testing::Values("+1", "01", " 1"));

struct RejectedIndex
{
    const char *token;
    const char *reason;
};

class MatrixMarketIndexTokenDeath
    : public testing::TestWithParam<RejectedIndex>
{
};

TEST_P(MatrixMarketIndexTokenDeath, IsFatal)
{
    std::stringstream ss(oneIndexFile(GetParam().token));
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                GetParam().reason);
}

INSTANTIATE_TEST_SUITE_P(
    Istream, MatrixMarketIndexTokenDeath,
    testing::Values(
        // A sign is read as strtoull reads it: '-' wraps modulo 2^64.
        RejectedIndex{"-1", "out of range"},
        RejectedIndex{"-0", "out of range"},
        RejectedIndex{"0", "out of range"},
        RejectedIndex{"18446744073709551615", "out of range"},
        RejectedIndex{"18446744073709551616", "truncated"},
        RejectedIndex{"99999999999999999999999", "truncated"},
        RejectedIndex{"+-1", "truncated"},
        RejectedIndex{"++1", "truncated"},
        RejectedIndex{"1.0", "truncated"},
        RejectedIndex{"1e0", "truncated"},
        RejectedIndex{"0x1", "truncated"}));

struct Layout
{
    const char *name;
    const char *text;
};

class MatrixMarketLayout : public testing::TestWithParam<Layout>
{
};

TEST_P(MatrixMarketLayout, ReadsLikeThePlainFile)
{
    std::stringstream plain("%%MatrixMarket matrix coordinate real general\n"
                            "2 2 2\n"
                            "1 2 1.5\n"
                            "2 1 2.5\n");
    std::stringstream variant(GetParam().text);
    EXPECT_TRUE(cooToCsr(readMatrixMarket(variant)) ==
                cooToCsr(readMatrixMarket(plain)));
}

INSTANTIATE_TEST_SUITE_P(
    Istream, MatrixMarketLayout,
    testing::Values(
        Layout{"Tabs", "%%MatrixMarket matrix coordinate real general\n"
                       "2\t2\t2\n1\t2\t1.5\n2\t1\t2.5\n"},
        Layout{"Crlf", "%%MatrixMarket matrix coordinate real general\r\n"
                       "% comment\r\n2 2 2\r\n1 2 1.5\r\n2 1 2.5\r\n"},
        Layout{"EntriesSplitAcrossLines",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n1\n2\n1.5 2\n1 2.5\n"},
        Layout{"VerticalTabAndFormFeed",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n1\v2\f1.5\n2 1 2.5\n"},
        Layout{"NoTrailingNewline",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n1 2 1.5\n2 1 2.5"},
        Layout{"TrailingTextIgnored",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n1 2 1.5\n2 1 2.5\n3 3 hello\n"},
        Layout{"BlankAndCommentLinesBeforeSize",
               "%%MatrixMarket matrix coordinate real general\n"
               "\n% a\n\n%b\n2 2 2\n1 2 1.5\n2 1 2.5\n"},
        Layout{"SizeLineSignsAndTrailingText",
               "%%MatrixMarket matrix coordinate real general\n"
               "+2 2 +2 extra\n1 2 1.5\n2 1 2.5\n"},
        Layout{"BannerCaseAndSpacing",
               "  %%MatrixMarket MATRIX Coordinate REAL General extra\n"
               "2 2 2\n1 2 1.5\n2 1 2.5\n"},
        Layout{"UnsortedWithDuplicates",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 3\n2 1 2.5\n1 2 1.0\n1 2 0.5\n"}),
    [](const testing::TestParamInfo<Layout> &info) {
        return std::string(info.param.name);
    });

struct RejectedLayout
{
    const char *name;
    const char *text;
    const char *reason;
};

class MatrixMarketLayoutDeath
    : public testing::TestWithParam<RejectedLayout>
{
};

TEST_P(MatrixMarketLayoutDeath, IsFatal)
{
    std::stringstream ss(GetParam().text);
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                GetParam().reason);
}

INSTANTIATE_TEST_SUITE_P(
    Istream, MatrixMarketLayoutDeath,
    testing::Values(
        RejectedLayout{"Empty", "", "empty input"},
        RejectedLayout{"BlankFirstLine",
                       "\n%%MatrixMarket matrix coordinate real general\n"
                       "1 1 0\n",
                       "banner"},
        RejectedLayout{"LowercaseTag",
                       "%%matrixmarket matrix coordinate real general\n"
                       "1 1 0\n",
                       "banner"},
        RejectedLayout{"MissingSymmetry",
                       "%%MatrixMarket matrix coordinate real\n1 1 0\n",
                       "unsupported symmetry"},
        RejectedLayout{"ArrayFormat",
                       "%%MatrixMarket matrix array real general\n"
                       "1 1\n1\n",
                       "only 'matrix coordinate'"},
        RejectedLayout{"Hermitian",
                       "%%MatrixMarket matrix coordinate real hermitian\n"
                       "1 1 0\n",
                       "unsupported symmetry"},
        RejectedLayout{"NoSizeLine",
                       "%%MatrixMarket matrix coordinate real general\n"
                       "% only a comment\n",
                       "bad size line"},
        RejectedLayout{"WhitespaceOnlySizeLine",
                       "%%MatrixMarket matrix coordinate real general\n"
                       " \n1 1 0\n",
                       "bad size line"},
        RejectedLayout{"SizeSplitAcrossLines",
                       "%%MatrixMarket matrix coordinate real general\n"
                       "2 2\n1\n",
                       "bad size line"},
        RejectedLayout{"FractionalSize",
                       "%%MatrixMarket matrix coordinate real general\n"
                       "2.0 2 0\n",
                       "bad size line"},
        RejectedLayout{"CommentAmongEntries",
                       "%%MatrixMarket matrix coordinate real general\n"
                       "2 2 2\n1 1 3\n% c\n2 2 4\n",
                       "truncated at entry 1"},
        RejectedLayout{"JunkBetweenEntries",
                       "%%MatrixMarket matrix coordinate real general\n"
                       "1 2 2\n1 1 1.5abc\n1 2 2\n",
                       "truncated at entry 1"}),
    [](const testing::TestParamInfo<RejectedLayout> &info) {
        return std::string(info.param.name);
    });

TEST(MatrixMarketDeath, RejectsNnzTheTextCannotHold)
{
    // Used to reserve 10^14 entries up front and abort on bad_alloc.
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 99999999999999\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "truncated at entry 1");
}

TEST(MatrixMarketDeath, RejectsDimensionAboveIndexRange)
{
    // 2^32 + 1 rows used to wrap silently to a 1-row matrix.
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967297 1 1\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "size line '4294967297 1 1'");
}

} // namespace
} // namespace misam
