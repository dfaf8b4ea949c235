/** @file Unit tests for the functional backing store and paging. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/phys_mem.hh"

using namespace sf;
using namespace sf::mem;

TEST(PhysMem, FreshMemoryReadsZero)
{
    PhysMem m;
    EXPECT_EQ(m.readT<uint64_t>(0x123456), 0u);
    EXPECT_EQ(m.numAllocatedPages(), 0u);
}

TEST(PhysMem, WriteThenRead)
{
    PhysMem m;
    m.writeT<uint32_t>(0x1000, 0xdeadbeef);
    EXPECT_EQ(m.readT<uint32_t>(0x1000), 0xdeadbeefu);
    EXPECT_EQ(m.readT<uint16_t>(0x1000), 0xbeefu);
}

TEST(PhysMem, CrossPageAccess)
{
    PhysMem m;
    Addr a = pageBytes - 4;
    m.writeT<uint64_t>(a, 0x1122334455667788ull);
    EXPECT_EQ(m.readT<uint64_t>(a), 0x1122334455667788ull);
    EXPECT_EQ(m.numAllocatedPages(), 2u);
}

TEST(PhysMem, ReadUintSizes)
{
    PhysMem m;
    m.writeT<uint64_t>(64, 0x0102030405060708ull);
    EXPECT_EQ(m.readUint(64, 1), 0x08u);
    EXPECT_EQ(m.readUint(64, 2), 0x0708u);
    EXPECT_EQ(m.readUint(64, 4), 0x05060708u);
    EXPECT_EQ(m.readUint(64, 8), 0x0102030405060708ull);
}

TEST(PhysMem, ReadIntSignExtends)
{
    PhysMem m;
    m.writeT<int32_t>(128, -5);
    EXPECT_EQ(m.readInt(128, 4), -5);
    m.writeT<int64_t>(256, -123456789012345ll);
    EXPECT_EQ(m.readInt(256, 8), -123456789012345ll);
}

TEST(PhysMem, MaterializeAllocatesZeroFilledPage)
{
    PhysMem m;
    m.materialize(0x2000 + 12);
    EXPECT_EQ(m.numAllocatedPages(), 1u);
    EXPECT_EQ(m.readT<uint64_t>(0x2000), 0u);
    // Idempotent and preserves existing contents.
    m.writeT<uint32_t>(0x2000, 7u);
    m.materialize(0x2000);
    EXPECT_EQ(m.readT<uint32_t>(0x2000), 7u);
    EXPECT_EQ(m.numAllocatedPages(), 1u);
}

TEST(AddressSpace, MapPageMaterializesEagerly)
{
    PhysMem m;
    AddressSpace as(0, m);
    as.alloc(4 * pageBytes);
    EXPECT_EQ(m.numAllocatedPages(), 4u);
}

TEST(AddressSpace, FirstTouchFrameIsTouchOrderIndependent)
{
    // The frame is a pure hash of the virtual page, so the physical
    // placement of a lazily touched page cannot depend on which page
    // was translated first.
    PhysMem m1, m2;
    AddressSpace a(0, m1), b(0, m2);
    Addr va1 = 0x10000000, va2 = 0x10300000, va3 = 0x13370000;
    Addr f1 = a.translate(va1), f2 = a.translate(va2),
         f3 = a.translate(va3);
    EXPECT_EQ(b.translate(va3), f3);
    EXPECT_EQ(b.translate(va1), f1);
    EXPECT_EQ(b.translate(va2), f2);
}

TEST(AddressSpace, AllocReturnsPageAlignedDistinctRegions)
{
    PhysMem m;
    AddressSpace as(0, m);
    Addr a = as.alloc(100);
    Addr b = as.alloc(100);
    EXPECT_EQ(a % pageBytes, 0u);
    EXPECT_EQ(b % pageBytes, 0u);
    EXPECT_NE(a, b);
    // Guard page between allocations.
    EXPECT_GE(b, a + 2 * pageBytes);
}

TEST(AddressSpace, TranslationIsStable)
{
    PhysMem m;
    AddressSpace as(0, m);
    Addr v = as.alloc(4096);
    Addr p1 = as.translate(v + 100);
    Addr p2 = as.translate(v + 100);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(as.translate(v + 101), p1 + 1);
}

TEST(AddressSpace, DistinctPagesGetDistinctFrames)
{
    PhysMem m;
    AddressSpace as(0, m);
    Addr v = as.alloc(64 * pageBytes);
    std::set<Addr> frames;
    for (int i = 0; i < 64; ++i)
        frames.insert(pageAlign(as.translate(v + i * pageBytes)));
    EXPECT_EQ(frames.size(), 64u);
}

TEST(AddressSpace, FramesAreScrambledNotContiguous)
{
    PhysMem m;
    AddressSpace as(0, m);
    Addr v = as.alloc(16 * pageBytes);
    int contiguous = 0;
    Addr prev = as.translate(v);
    for (int i = 1; i < 16; ++i) {
        Addr cur = as.translate(v + i * pageBytes);
        if (cur == prev + pageBytes)
            ++contiguous;
        prev = cur;
    }
    EXPECT_LT(contiguous, 4);
}

TEST(AddressSpace, TranslateExistingReturnsInvalidWhenUnmapped)
{
    PhysMem m;
    AddressSpace as(0, m);
    EXPECT_EQ(as.translateExisting(0xdead0000), invalidAddr);
    Addr v = as.alloc(128);
    EXPECT_NE(as.translateExisting(v), invalidAddr);
}

TEST(AddressSpace, TypedAccessRoundTrips)
{
    PhysMem m;
    AddressSpace as(0, m);
    Addr v = as.alloc(4096);
    as.writeT<float>(v + 16, 3.5f);
    EXPECT_FLOAT_EQ(as.readT<float>(v + 16), 3.5f);
}

TEST(AddressSpace, DifferentAsidsDontCollide)
{
    PhysMem m;
    AddressSpace a(0, m), b(1, m);
    Addr va = a.alloc(4096);
    Addr vb = b.alloc(4096);
    a.writeT<uint32_t>(va, 111);
    b.writeT<uint32_t>(vb, 222);
    EXPECT_EQ(a.readT<uint32_t>(va), 111u);
    EXPECT_EQ(b.readT<uint32_t>(vb), 222u);
    EXPECT_NE(a.translate(va), b.translate(vb));
}

TEST(AddressSpace, DeterministicAcrossRuns)
{
    auto layout = []() {
        PhysMem m;
        AddressSpace as(0, m);
        std::vector<Addr> ps;
        Addr v = as.alloc(8 * pageBytes);
        for (int i = 0; i < 8; ++i)
            ps.push_back(as.translate(v + i * pageBytes));
        return ps;
    };
    EXPECT_EQ(layout(), layout());
}
