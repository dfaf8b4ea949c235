/** @file Unit tests for stream pattern descriptors (Table I). */

#include <gtest/gtest.h>

#include "isa/stream_pattern.hh"
#include "sim/rng.hh"

using namespace sf;
using namespace sf::isa;

TEST(AffinePattern, Linear1D)
{
    AffinePattern p;
    p.base = 0x1000;
    p.elemSize = 4;
    p.nDims = 1;
    p.stride[0] = 4;
    p.len[0] = 100;
    EXPECT_EQ(p.totalElems(), 100u);
    EXPECT_EQ(p.elemAddr(0), 0x1000u);
    EXPECT_EQ(p.elemAddr(1), 0x1004u);
    EXPECT_EQ(p.elemAddr(99), 0x1000u + 99 * 4);
}

TEST(AffinePattern, Strided1D)
{
    AffinePattern p;
    p.base = 0x2000;
    p.elemSize = 4;
    p.nDims = 1;
    p.stride[0] = 64; // one element per cache line
    p.len[0] = 10;
    EXPECT_EQ(p.elemAddr(3), 0x2000u + 3 * 64);
}

TEST(AffinePattern, RowMajor2D)
{
    // A[i][j] with row pitch 1024B, 16 elements per row of 4B.
    AffinePattern p;
    p.base = 0;
    p.elemSize = 4;
    p.nDims = 2;
    p.stride[0] = 4;
    p.len[0] = 16;
    p.stride[1] = 1024;
    p.len[1] = 8;
    EXPECT_EQ(p.totalElems(), 128u);
    EXPECT_EQ(p.elemAddr(0), 0u);
    EXPECT_EQ(p.elemAddr(15), 60u);
    EXPECT_EQ(p.elemAddr(16), 1024u); // next row
    EXPECT_EQ(p.elemAddr(17), 1028u);
    EXPECT_EQ(p.elemAddr(127), 7 * 1024u + 60u);
}

TEST(AffinePattern, ThreeLevel)
{
    AffinePattern p;
    p.base = 0;
    p.elemSize = 4;
    p.nDims = 3;
    p.stride[0] = 4;
    p.len[0] = 4;
    p.stride[1] = 100;
    p.len[1] = 3;
    p.stride[2] = 10000;
    p.len[2] = 2;
    EXPECT_EQ(p.totalElems(), 24u);
    // iter 13 = i0=1, i1=0, i2=1
    EXPECT_EQ(p.elemAddr(13), 4u + 0u + 10000u);
}

TEST(AffinePattern, NegativeStride)
{
    AffinePattern p;
    p.base = 0x1000;
    p.elemSize = 4;
    p.nDims = 1;
    p.stride[0] = -4;
    p.len[0] = 4;
    EXPECT_EQ(p.elemAddr(3), 0x1000u - 12);
    EXPECT_EQ(p.footprintBytes(), 3u * 4 + 4);
}

TEST(AffinePattern, FootprintSpansAllLevels)
{
    AffinePattern p;
    p.base = 0;
    p.elemSize = 4;
    p.nDims = 2;
    p.stride[0] = 4;
    p.len[0] = 16;
    p.stride[1] = 1024;
    p.len[1] = 8;
    EXPECT_EQ(p.footprintBytes(), 15u * 4 + 7u * 1024 + 4);
}

TEST(AffineCursor, WalksLevelsWithNegativeStrides)
{
    AffinePattern p;
    p.base = 0x8000;
    p.nDims = 3;
    p.stride[0] = -4;
    p.len[0] = 3;
    p.stride[1] = 100;
    p.len[1] = 1;
    p.stride[2] = -1000;
    p.len[2] = 4;
    AffineCursor c(p);
    // Past totalElems() too: the outermost level never wraps.
    for (uint64_t i = 0; i < 40; ++i)
        EXPECT_EQ(c.at(i), p.elemAddr(i)) << "element " << i;
}

TEST(AffineCursor, MatchesElemAddrOnRandomPatterns)
{
    Rng rng(28);
    for (int trial = 0; trial < 64; ++trial) {
        AffinePattern p;
        p.base = 0x10000000 + rng.range(1 << 20);
        p.nDims = 1 + static_cast<int>(rng.range(3));
        for (int d = 0; d < p.nDims; ++d) {
            p.len[d] = rng.range(4) == 0 ? 1 : 1 + rng.range(40);
            p.stride[d] = rng.rangeInclusive(-4096, 4096);
        }
        AffineCursor c(p);
        uint64_t idx = 0;
        for (int n = 0; n < 12000; ++n) {
            ASSERT_EQ(c.at(idx), p.elemAddr(idx))
                << "pattern " << trial << " element " << idx;
            switch (rng.range(16)) {
              case 0: // reseek anywhere, backwards included
                idx = rng.range(1 << 16);
                break;
              case 1: // a forward move of several elements
                idx += 2 + rng.range(64);
                break;
              case 2: // ask for the same element again
                break;
              default:
                ++idx;
                break;
            }
        }
    }
}

TEST(IndirectPattern, TargetAddress)
{
    IndirectPattern p;
    p.base = 0x100000;
    p.elemSize = 4;
    p.idxSize = 4;
    p.scale = 4;
    p.offset = 0;
    EXPECT_EQ(p.targetAddr(10), 0x100000u + 40);
    EXPECT_EQ(p.targetAddr(-2), 0x100000u - 8);
}

TEST(IndirectPattern, WLoopAndScale)
{
    // B[A[i]*5 + w] over 4-byte fields: struct gather (Eq. 1).
    IndirectPattern p;
    p.base = 0x100000;
    p.elemSize = 4;
    p.idxSize = 4;
    p.scale = 20; // 5 fields x 4 bytes
    p.wLen = 5;
    EXPECT_EQ(p.targetAddr(3, 0), 0x100000u + 60);
    EXPECT_EQ(p.targetAddr(3, 4), 0x100000u + 60 + 16);
}

TEST(StreamConfig, TotalElemsIncludesWLoop)
{
    StreamConfig c;
    c.affine.len[0] = 100;
    c.hasIndirect = true;
    c.indirect.wLen = 5;
    EXPECT_EQ(c.totalElems(), 500u);
}

/**
 * Table I claim: the affine configuration packet is 450 bits, and an
 * indirect stream adds 60 bits; both fit well under one cache line.
 */
TEST(StreamConfig, ConfigPacketSizesMatchTableI)
{
    StreamConfig affine;
    EXPECT_EQ(affine.configBits(), 450u);

    StreamConfig ind;
    ind.hasIndirect = true;
    EXPECT_EQ(ind.configBits(), 510u);
    EXPECT_LT(ind.configBits(), 64u * 8); // less than one cache line
}

class AffineSweep
    : public ::testing::TestWithParam<std::tuple<int, int64_t, uint64_t>>
{
};

TEST_P(AffineSweep, AddressesAreStrideSeparatedWithinInnerLevel)
{
    auto [dims, stride, len] = GetParam();
    AffinePattern p;
    p.base = 0x4000;
    p.elemSize = 4;
    p.nDims = dims;
    p.stride[0] = stride;
    p.len[0] = len;
    for (int d = 1; d < dims; ++d) {
        p.stride[d] = stride * 1000;
        p.len[d] = 3;
    }
    for (uint64_t i = 1; i < len; ++i) {
        EXPECT_EQ(static_cast<int64_t>(p.elemAddr(i)) -
                      static_cast<int64_t>(p.elemAddr(i - 1)),
                  stride);
    }
    // Crossing into the next level jumps by the outer stride.
    if (dims > 1) {
        EXPECT_EQ(static_cast<int64_t>(p.elemAddr(len)) -
                      static_cast<int64_t>(p.elemAddr(0)),
                  stride * 1000);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AffineSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(int64_t(4), int64_t(64),
                                         int64_t(-8), int64_t(256)),
                       ::testing::Values(uint64_t(2), uint64_t(16),
                                         uint64_t(333))));
