/**
 * @file
 * sim::Ring, the power-of-two ring behind SE_core's FIFO windows:
 * growth while wrapped, clear() keeping the buffer, and random
 * push/pop/index sequences against std::deque.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "sim/ring.hh"
#include "sim/rng.hh"

using namespace sf;

TEST(Ring, GrowsWhileWrappedKeepingOrder)
{
    sim::Ring<uint64_t> r;
    for (uint64_t v = 0; v < 64; ++v)
        r.push_back(v);
    EXPECT_EQ(r.capacity(), sim::Ring<uint64_t>::initialCapacity);
    r.popFront(40);
    // 24 live, head at slot 40: the next 40 pushes wrap, then the ring
    // is full and doubles with its oldest element at slot 40.
    for (uint64_t v = 64; v < 164; ++v)
        r.push_back(v);
    EXPECT_EQ(r.capacity(), 128u);
    ASSERT_EQ(r.size(), 124u);
    for (size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], 40 + i);
}

TEST(Ring, ClearAndOverlongPopKeepTheBuffer)
{
    sim::Ring<int> r;
    for (int v = 0; v < 300; ++v)
        r.push_back(v);
    EXPECT_EQ(r.capacity(), 512u);
    r.popFront(1000);
    EXPECT_TRUE(r.empty());
    r.push_back(7);
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 512u);
    r.push_back(8);
    EXPECT_EQ(r[0], 8);
}

TEST(Ring, RandomSequencesMatchADeque)
{
    Rng rng(28);
    sim::Ring<uint64_t> r;
    std::deque<uint64_t> ref;
    uint64_t next = 0;
    for (int op = 0; op < 20000; ++op) {
        switch (rng.range(8)) {
          case 0: { // may ask for more than are live
            size_t n = static_cast<size_t>(rng.range(ref.size() + 4));
            r.popFront(n);
            n = std::min(n, ref.size());
            ref.erase(ref.begin(),
                      ref.begin() + static_cast<std::ptrdiff_t>(n));
            break;
          }
          case 1:
            if (rng.range(50) == 0) {
                r.clear();
                ref.clear();
            }
            break;
          default:
            for (uint64_t k = rng.range(24); k > 0; --k) {
                r.push_back(next);
                ref.push_back(next++);
            }
            break;
        }
        ASSERT_EQ(r.size(), ref.size()) << "op " << op;
        size_t cap = r.capacity();
        ASSERT_TRUE(cap == 0 || (cap & (cap - 1)) == 0) << cap;
        ASSERT_GE(cap, r.size());
        if (!ref.empty()) {
            size_t i = static_cast<size_t>(rng.range(ref.size()));
            ASSERT_EQ(r[i], ref[i]) << "op " << op << " offset " << i;
            ASSERT_EQ(r[0], ref.front());
            ASSERT_EQ(r[r.size() - 1], ref.back());
        }
    }
}
