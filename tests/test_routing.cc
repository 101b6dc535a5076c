/** @file Tests for deterministic routing and round-robin arbitration. */

#include <cstdint>

#include <gtest/gtest.h>

#include "noc/arbiter.hh"
#include "noc/routing.hh"

using namespace cais;

TEST(Routing, DeterministicPerAddress)
{
    DeterministicRouting r(4, 4096);
    for (Addr a = 0; a < 100 * 4096; a += 4096)
        EXPECT_EQ(r.switchForAddr(a), r.switchForAddr(a));
}

TEST(Routing, SameChunkSameSwitch)
{
    // Addresses within one interleave unit converge on one switch —
    // the property that lets mergeable requests meet (Sec. III-A.5).
    DeterministicRouting r(4, 4096);
    Addr base = makeAddr(3, 1 << 20);
    SwitchId s = r.switchForAddr(base);
    for (Addr off = 0; off < 4096; off += 128)
        EXPECT_EQ(r.switchForAddr(base + off), s);
}

TEST(Routing, SpreadsAcrossSwitches)
{
    DeterministicRouting r(4, 4096);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i)
        ++counts[static_cast<std::size_t>(
            r.switchForAddr(static_cast<Addr>(i) * 4096))];
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(Routing, GroupRoutingInRangeAndDeterministic)
{
    DeterministicRouting r(4, 4096);
    for (GroupId g = 0; g < 1000; ++g) {
        SwitchId s = r.switchForGroup(g);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, 4);
        EXPECT_EQ(r.switchForGroup(g), s);
    }
}

TEST(Arbiter, RoundRobinFairness)
{
    RoundRobinArbiter arb(4);
    const std::uint32_t all_ready = 0b1111;
    EXPECT_EQ(arb.pick(all_ready), 0);
    EXPECT_EQ(arb.pick(all_ready), 1);
    EXPECT_EQ(arb.pick(all_ready), 2);
    EXPECT_EQ(arb.pick(all_ready), 3);
    EXPECT_EQ(arb.pick(all_ready), 0);
}

TEST(Arbiter, SkipsNotReady)
{
    RoundRobinArbiter arb(4);
    const std::uint32_t only2 = 1u << 2;
    EXPECT_EQ(arb.pick(only2), 2);
    EXPECT_EQ(arb.pick(only2), 2);
    const std::uint32_t none = 0;
    EXPECT_EQ(arb.pick(none), -1);
}

TEST(Arbiter, ResumesAfterLastGrant)
{
    RoundRobinArbiter arb(3);
    const std::uint32_t all = 0b111;
    EXPECT_EQ(arb.pick(all), 0);
    const std::uint32_t only0 = 1u << 0;
    EXPECT_EQ(arb.pick(only0), 0);
    // After granting 0, input 1 has priority.
    EXPECT_EQ(arb.pick(all), 1);
}

TEST(Arbiter, WrapsPastHighestReadyInput)
{
    RoundRobinArbiter arb(8);
    EXPECT_EQ(arb.pick(1u << 6), 6);
    // Nothing ready at or after the cursor (7): wrap to the lowest.
    EXPECT_EQ(arb.pick((1u << 1) | (1u << 4)), 1);
    EXPECT_EQ(arb.pick((1u << 1) | (1u << 4)), 4);
    // Granting the last input puts the cursor back at 0.
    EXPECT_EQ(arb.pick(1u << 7), 7);
    EXPECT_EQ(arb.cursor(), 0);
    EXPECT_EQ(arb.pick(0b1000'0001), 0);
    // Bits beyond the input count are not requesters.
    EXPECT_EQ(arb.pick(1u << 9), -1);
}

TEST(Arbiter, FullWidthMask)
{
    RoundRobinArbiter arb(RoundRobinArbiter::maxInputs);
    EXPECT_EQ(arb.pick(1u << 31), 31);
    EXPECT_EQ(arb.pick(~0u), 0);
}
