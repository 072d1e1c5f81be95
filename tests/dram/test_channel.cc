/**
 * @file
 * Unit tests for channel-level timing: bus arbitration, tRRD/tFAW
 * windows, refresh bookkeeping and PIM activation groups.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/channel.h"

namespace neupims::dram {
namespace {

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest() : ch(t, org, true) {}

    TimingParams t;
    Organization org;
    Channel ch;
};

TEST_F(ChannelTest, ActivateRespectsTrrdAcrossBanks)
{
    Cycle a0 = ch.issueActivate(0, BufferSide::Mem, 0, 0);
    Cycle a1 = ch.issueActivate(8, BufferSide::Mem, 0, 0); // other group
    EXPECT_GE(a1, a0 + t.tRRD_S);
    Cycle a2 = ch.issueActivate(9, BufferSide::Mem, 0, 0); // same group as 8
    EXPECT_GE(a2, a1 + t.tRRD_L);
}

TEST_F(ChannelTest, FourActivateWindowEnforced)
{
    std::vector<Cycle> acts;
    // Use banks from different groups so only tRRD_S and tFAW bind.
    for (int i = 0; i < 5; ++i)
        acts.push_back(
            ch.issueActivate(i * org.banksPerGroup, BufferSide::Mem, 0, 0));
    // The fifth activation must leave the first's tFAW window.
    EXPECT_GE(acts[4], acts[0] + t.tFAW);
}

TEST_F(ChannelTest, CaBusSerializesCommands)
{
    Cycle a0 = ch.issueActivate(0, BufferSide::Mem, 0, 0);
    // A command to a totally different bank still needs a C/A slot.
    Cycle a1 = ch.issueActivate(16, BufferSide::Mem, 0, 0);
    EXPECT_GE(a1, a0 + t.caMemCmd);
}

TEST_F(ChannelTest, ReadDataLandsTclAfterCommand)
{
    ch.issueActivate(0, BufferSide::Mem, 0, 0);
    auto [cmd, data_end] = ch.issueRead(0, BufferSide::Mem, 0);
    EXPECT_EQ(data_end, cmd + t.tCL + t.tBL);
}

TEST_F(ChannelTest, BackToBackReadsPipelineOnDataBus)
{
    ch.issueActivate(0, BufferSide::Mem, 0, 0);
    auto [c0, e0] = ch.issueRead(0, BufferSide::Mem, 0);
    auto [c1, e1] = ch.issueRead(0, BufferSide::Mem, 0);
    (void)c0;
    (void)c1;
    // Data bus: consecutive bursts are contiguous, tBL apart.
    EXPECT_EQ(e1, e0 + t.tBL);
}

TEST_F(ChannelTest, DataBusBytesAccumulate)
{
    ch.issueActivate(0, BufferSide::Mem, 0, 0);
    ch.issueRead(0, BufferSide::Mem, 0);
    ch.issueRead(0, BufferSide::Mem, 0);
    EXPECT_EQ(ch.dataBusBytes(), 2 * org.burstBytes);
}

TEST_F(ChannelTest, CommandCountsRecorded)
{
    ch.issueActivate(0, BufferSide::Mem, 0, 0);
    ch.issueRead(0, BufferSide::Mem, 0);
    ch.issueWrite(0, BufferSide::Mem, 0);
    ch.issuePrecharge(0, BufferSide::Mem, 0);
    const auto &c = ch.commandCounts();
    EXPECT_EQ(c.count(CommandType::Act), 1u);
    EXPECT_EQ(c.count(CommandType::Rd), 1u);
    EXPECT_EQ(c.count(CommandType::Wr), 1u);
    EXPECT_EQ(c.count(CommandType::Pre), 1u);
}

TEST_F(ChannelTest, RefreshClosesAllBanksAndReschedules)
{
    ch.issueActivate(0, BufferSide::Mem, 3, 0);
    Cycle due_before = ch.nextRefreshDue();
    Cycle done = ch.issueRefresh(due_before);
    EXPECT_GE(done, due_before + t.tRFC);
    EXPECT_EQ(ch.nextRefreshDue(), due_before + t.tREFI);
    EXPECT_EQ(ch.bank(0).openRow(BufferSide::Mem), -1);
    // Bank is blocked for tRFC.
    EXPECT_GE(ch.earliestActivate(0, BufferSide::Mem, 0), done);
}

TEST_F(ChannelTest, PostponeRefreshHasBudgetOfEight)
{
    Cycle due = ch.nextRefreshDue();
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ch.postponeRefresh());
    EXPECT_FALSE(ch.postponeRefresh());
    EXPECT_EQ(ch.nextRefreshDue(), due + 8 * t.tREFI);
    // After the catch-up refresh the schedule realigns.
    ch.issueRefresh(ch.nextRefreshDue());
    EXPECT_EQ(ch.nextRefreshDue(), due + 8 * t.tREFI + 9 * t.tREFI);
}

TEST_F(ChannelTest, PimActivateGroupOpensFourRows)
{
    Cycle act = ch.issuePimActivateGroup(0, 4, /*row=*/5, 0, true);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(ch.bank(b).openRow(BufferSide::Pim), 5);
    EXPECT_EQ(ch.commandCounts().count(CommandType::PimActivate), 1u);
    // Subsequent group targets another bank group: tRRD_S applies.
    Cycle act2 = ch.issuePimActivateGroup(4, 4, 5, 0, true);
    EXPECT_GE(act2, act + t.tRRD_S);
    // A group back in bank group 0 respects the long spacing.
    Cycle act3 = ch.issuePimActivateGroup(0, 4, 6, act + t.tRC(), true);
    EXPECT_GE(act3, act + t.tRC());
}

TEST_F(ChannelTest, PimActivateGroupWithoutCaIsFree)
{
    Cycle before_ca = ch.earliestCa(0);
    ch.issuePimActivateGroup(0, 4, 0, 0, false);
    EXPECT_EQ(ch.earliestCa(0), before_ca); // no C/A slot consumed
    EXPECT_EQ(ch.commandCounts().count(CommandType::PimActivate), 0u);
}

TEST_F(ChannelTest, PimCaCommandsAreWiderThanMemCommands)
{
    Cycle p0 = ch.issuePimCaCommand(CommandType::PimHeader, 0);
    Cycle a0 = ch.issueActivate(0, BufferSide::Mem, 0, 0);
    EXPECT_GE(a0, p0 + t.caPimCmd);
}

TEST_F(ChannelTest, ReserveDataBusIsContiguous)
{
    auto [s0, e0] = ch.reserveDataBus(100, 4);
    EXPECT_EQ(s0, 100u);
    EXPECT_EQ(e0, 100 + 4 * t.tBL);
    auto [s1, e1] = ch.reserveDataBus(0, 2);
    EXPECT_EQ(s1, e0); // may not overlap the earlier reservation
    EXPECT_EQ(e1, e0 + 2 * t.tBL);
}

TEST_F(ChannelTest, DualRowBufferAllowsMemReadDuringPimOpenRow)
{
    // Open a PIM row, then a MEM row on the same bank: with dual
    // buffers both stay open (the core NeuPIMs mechanism).
    Cycle pim_act = ch.issuePimActivateGroup(0, 4, 1, 0, true);
    Cycle mem_act =
        ch.issueActivate(0, BufferSide::Mem, 2, pim_act + t.tRC());
    EXPECT_EQ(ch.bank(0).openRow(BufferSide::Pim), 1);
    EXPECT_EQ(ch.bank(0).openRow(BufferSide::Mem), 2);
    auto [cmd, end] = ch.issueRead(0, BufferSide::Mem, mem_act);
    (void)cmd;
    EXPECT_GT(end, 0u);
    EXPECT_EQ(ch.bank(0).openRow(BufferSide::Pim), 1); // still open
}

TEST_F(ChannelTest, SingleRowBufferEvictsMemRowOnPimActivate)
{
    Channel blocked(t, org, false);
    blocked.issueActivate(0, BufferSide::Mem, 2, 0);
    EXPECT_EQ(blocked.bank(0).openRow(BufferSide::Mem), 2);
    blocked.issuePimActivateGroup(0, 4, 1, 10'000, true);
    // Baseline bank: PIM activation clobbered the MEM row.
    EXPECT_EQ(blocked.bank(0).openRow(BufferSide::Mem), 1);
}

} // namespace
} // namespace neupims::dram
