/**
 * @file
 * Unit and integration tests for the memory controller: queue
 * processing, blocked vs concurrent modes, composite vs fine-grained
 * PIM kernels, refresh interplay and command-traffic accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/controller.h"

namespace neupims::dram {
namespace {

struct ControllerFixture
{
    EventQueue eq;
    TimingParams t;
    Organization org;

    std::unique_ptr<MemoryController>
    make(bool dual, Cycle horizon = 256)
    {
        auto cfg = ControllerConfig::make(dual);
        cfg.horizon = horizon;
        return std::make_unique<MemoryController>(eq, t, org, cfg);
    }
};

class ControllerTest : public ::testing::Test, public ControllerFixture
{};

TEST_F(ControllerTest, SingleReadCompletes)
{
    auto mc = make(true);
    Cycle done = 0;
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 4;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueueMem(std::move(job));
    eq.run();
    EXPECT_TRUE(mc->idle());
    // ACT + tRCD + tCL + 4 bursts is the minimum possible.
    EXPECT_GE(done, t.tRCD + t.tCL + 4 * t.tBL);
    EXPECT_EQ(mc->completedMemJobs(), 1u);
}

TEST_F(ControllerTest, StreamAcrossBanksPipelines)
{
    auto mc = make(true);
    const int rows = 64;
    const int bursts = 16;
    Cycle last = 0;
    int completed = 0;
    for (int i = 0; i < rows; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = bursts;
        job.onComplete = [&](Cycle c) {
            last = std::max(last, c);
            ++completed;
        };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, rows);
    // With bank pipelining the stream should approach data-bus limits:
    // 64 rows x 16 bursts x tBL cycles of pure data, allow 40% slack
    // for activation ramp-up.
    Cycle ideal = rows * bursts * t.tBL;
    EXPECT_LT(last, ideal * 14 / 10);
}

TEST_F(ControllerTest, SameBankRowsSerializeOnTrc)
{
    auto mc = make(true);
    std::vector<Cycle> done;
    for (int i = 0; i < 3; ++i) {
        MemJob job;
        job.bank = 0;
        job.row = i;
        job.bursts = 1;
        job.onComplete = [&](Cycle c) { done.push_back(c); };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    ASSERT_EQ(done.size(), 3u);
    // Row misses to one bank can't beat the row cycle time.
    EXPECT_GE(done[1], done[0] + t.tRP);
    EXPECT_GE(done[2], done[1] + t.tRP);
}

TEST_F(ControllerTest, RowHitSkipsActivation)
{
    auto mc = make(true);
    std::vector<Cycle> done;
    for (int i = 0; i < 2; ++i) {
        MemJob job;
        job.bank = 0;
        job.row = 7; // same row twice -> second is a row hit
        job.bursts = 1;
        job.onComplete = [&](Cycle c) { done.push_back(c); };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_LE(done[1], done[0] + 2 * t.tBL + t.caMemCmd);
    EXPECT_EQ(mc->channel().commandCounts().count(CommandType::Act), 1u);
}

TEST_F(ControllerTest, CompositePimKernelCompletes)
{
    auto mc = make(true);
    Cycle done = 0;
    PimJob job;
    job.rowTiles = 64; // two rounds over 32 banks
    job.banksUsed = 32;
    job.gwrites = 2;
    job.resultBursts = 4;
    job.composite = true;
    job.header = true;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(mc->completedPimJobs(), 1u);
    const auto &counts = mc->channel().commandCounts();
    EXPECT_EQ(counts.count(CommandType::PimHeader), 1u);
    EXPECT_EQ(counts.count(CommandType::PimGwrite), 2u);
    EXPECT_EQ(counts.count(CommandType::PimGemv), 2u); // one per round
    EXPECT_EQ(counts.count(CommandType::PimDotProduct), 0u);
    EXPECT_EQ(counts.count(CommandType::PimPrecharge), 1u);
}

TEST_F(ControllerTest, FineGrainedKernelIssuesPerBankCommands)
{
    auto mc = make(false);
    Cycle done = 0;
    PimJob job;
    job.rowTiles = 64;
    job.banksUsed = 32;
    job.gwrites = 2;
    job.resultBursts = 4;
    job.composite = false;
    job.header = false;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_GT(done, 0u);
    const auto &counts = mc->channel().commandCounts();
    EXPECT_EQ(counts.count(CommandType::PimDotProduct), 64u);
    EXPECT_EQ(counts.count(CommandType::PimActivate), 16u); // 8/round
    EXPECT_EQ(counts.count(CommandType::PimRdResult), 2u);
    EXPECT_EQ(counts.count(CommandType::PimGemv), 0u);
}

TEST_F(ControllerTest, CompositeUsesFarFewerCaCommands)
{
    // Figure 9: composite PIM_GEMV reduces C/A traffic.
    auto fine = make(false);
    auto comp = make(true);
    auto enqueue = [&](MemoryController &mc, bool composite) {
        PimJob job;
        job.rowTiles = 256;
        job.banksUsed = 32;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = composite;
        job.onComplete = [](Cycle) {};
        mc.enqueuePim(std::move(job));
    };
    enqueue(*fine, false);
    enqueue(*comp, true);
    eq.run();
    auto fine_cmds = fine->channel().commandCounts().totalPim();
    auto comp_cmds = comp->channel().commandCounts().totalPim();
    EXPECT_GT(fine_cmds, comp_cmds * 5);
}

TEST_F(ControllerTest, CompositeKernelFinishesFasterThanFineGrained)
{
    auto fine = make(true); // same dual-row-buffer channel for both
    auto comp = make(true);
    Cycle fine_done = 0, comp_done = 0;
    auto enqueue = [&](MemoryController &mc, bool composite,
                       Cycle &done) {
        PimJob job;
        job.rowTiles = 512;
        job.banksUsed = 32;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = true;
        job.onComplete = [&done](Cycle c) { done = c; };
        mc.enqueuePim(std::move(job));
    };
    enqueue(*fine, false, fine_done);
    enqueue(*comp, true, comp_done);
    eq.run();
    EXPECT_LT(comp_done, fine_done);
}

TEST_F(ControllerTest, BlockedModeSerializesMemBehindPim)
{
    auto mc = make(false); // baseline: blocked
    Cycle pim_done = 0, mem_done = 0;
    PimJob pjob;
    pjob.rowTiles = 128;
    pjob.banksUsed = 32;
    pjob.gwrites = 1;
    pjob.resultBursts = 2;
    pjob.composite = false;
    pjob.header = false;
    pjob.onComplete = [&](Cycle c) { pim_done = c; };
    mc->enqueuePim(std::move(pjob));
    MemJob mjob;
    mjob.bank = 5;
    mjob.row = 1;
    mjob.bursts = 1;
    mjob.onComplete = [&](Cycle c) { mem_done = c; };
    mc->enqueueMem(std::move(mjob));
    eq.run();
    // The read had to wait for the whole PIM kernel.
    EXPECT_GT(mem_done, pim_done);
}

TEST_F(ControllerTest, ConcurrentModeOverlapsMemWithPim)
{
    auto mc = make(true); // NeuPIMs: dual row buffers
    Cycle pim_done = 0, mem_done = 0;
    PimJob pjob;
    pjob.rowTiles = 512;
    pjob.banksUsed = 32;
    pjob.gwrites = 1;
    pjob.resultBursts = 2;
    pjob.composite = true;
    pjob.header = true;
    pjob.onComplete = [&](Cycle c) { pim_done = c; };
    mc->enqueuePim(std::move(pjob));
    MemJob mjob;
    mjob.bank = 5;
    mjob.row = 1;
    mjob.bursts = 4;
    mjob.onComplete = [&](Cycle c) { mem_done = c; };
    mc->enqueueMem(std::move(mjob));
    eq.run();
    // The read slots into C/A gaps long before the kernel finishes.
    EXPECT_LT(mem_done, pim_done / 2);
}

TEST_F(ControllerTest, MemThroughputDegradesGracefullyUnderPim)
{
    // Stream the same memory traffic with and without a concurrent
    // PIM kernel; the kernel must slow the stream by less than the
    // serialized (blocked) alternative would.
    auto run_stream = [&](bool with_pim) {
        EventQueue local_eq;
        auto cfg = ControllerConfig::make(true);
        MemoryController mc(local_eq, t, org, cfg);
        if (with_pim) {
            PimJob pjob;
            pjob.rowTiles = 256;
            pjob.banksUsed = 32;
            pjob.gwrites = 1;
            pjob.resultBursts = 2;
            pjob.composite = true;
            pjob.header = true;
            pjob.onComplete = [](Cycle) {};
            mc.enqueuePim(std::move(pjob));
        }
        Cycle last = 0;
        for (int i = 0; i < 128; ++i) {
            MemJob job;
            job.bank = i % org.banksPerChannel;
            job.row = 100 + i / org.banksPerChannel;
            job.bursts = 16;
            job.onComplete = [&last](Cycle c) {
                last = std::max(last, c);
            };
            mc.enqueueMem(std::move(job));
        }
        local_eq.run();
        return last;
    };
    Cycle alone = run_stream(false);
    Cycle shared = run_stream(true);
    EXPECT_GT(shared, alone);      // contention is real
    EXPECT_LT(shared, alone * 3);  // but far from serialization
}

TEST_F(ControllerTest, RefreshIsIssuedPeriodically)
{
    auto mc = make(true);
    // Enough traffic to span several tREFI intervals.
    int completed = 0;
    for (int i = 0; i < 2000; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = 16;
        job.onComplete = [&](Cycle) { ++completed; };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, 2000);
    EXPECT_GE(mc->channel().commandCounts().count(CommandType::Ref), 3u);
}

TEST_F(ControllerTest, HeaderedKernelPostponesRefresh)
{
    auto with_header = make(true);
    auto without = make(true);
    auto enqueue = [&](MemoryController &mc, bool header, Cycle &done) {
        PimJob job;
        job.rowTiles = 4096; // long kernel spanning refresh intervals
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = header;
        job.onComplete = [&done](Cycle c) { done = c; };
        mc.enqueuePim(std::move(job));
    };
    Cycle done_hdr = 0, done_nohdr = 0;
    enqueue(*with_header, true, done_hdr);
    enqueue(*without, false, done_nohdr);
    eq.run();
    // Without PIM_HEADER the controller inserts conservative guard
    // gaps before refreshes; the kernel takes measurably longer.
    EXPECT_LT(done_hdr, done_nohdr);
}

TEST_F(ControllerTest, PimBankBusyCyclesAccumulate)
{
    auto mc = make(true);
    PimJob job;
    job.rowTiles = 64;
    job.banksUsed = 32;
    job.gwrites = 1;
    job.resultBursts = 2;
    job.composite = true;
    job.header = true;
    job.onComplete = [](Cycle) {};
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_DOUBLE_EQ(mc->pimBankBusyCycles().value(),
                     64.0 * t.pimComputePerRow);
}

TEST_F(ControllerTest, PartialLastRoundUsesFewerBanks)
{
    auto mc = make(true);
    PimJob job;
    job.rowTiles = 40; // 32 + 8: second round uses 8 banks
    job.banksUsed = 32;
    job.gwrites = 1;
    job.resultBursts = 2;
    job.composite = true;
    job.header = true;
    job.onComplete = [](Cycle) {};
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_DOUBLE_EQ(mc->pimBankBusyCycles().value(),
                     40.0 * t.pimComputePerRow);
    EXPECT_EQ(mc->channel().commandCounts().count(CommandType::PimGemv),
              2u);
}

TEST_F(ControllerTest, ManyKernelsRunBackToBack)
{
    auto mc = make(true);
    int completed = 0;
    Cycle last = 0;
    for (int k = 0; k < 10; ++k) {
        PimJob job;
        job.rowTiles = 32;
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = true;
        job.onComplete = [&](Cycle c) {
            ++completed;
            EXPECT_GE(c, last); // kernels complete in order
            last = c;
        };
        mc->enqueuePim(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, 10);
}

TEST_F(ControllerTest, LatePimArrivalSeesBoundedStaleness)
{
    const Cycle horizon = 64;
    auto mc = make(true, horizon);
    // Saturate with memory jobs first.
    for (int i = 0; i < 512; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = 16;
        mc->enqueueMem(std::move(job));
    }
    // Inject a PIM kernel mid-stream.
    Cycle inject_at = 2000;
    Cycle pim_done = 0;
    eq.schedule(inject_at, [&] {
        PimJob job;
        job.rowTiles = 32;
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = true;
        job.onComplete = [&](Cycle c) { pim_done = c; };
        mc->enqueuePim(std::move(job));
    });
    eq.run();
    ASSERT_GT(pim_done, 0u);
    // One isolated 32-row kernel takes well under 1500 cycles; with
    // bounded-horizon priority, the injected kernel must not be stuck
    // behind the remaining tens of thousands of memory cycles.
    EXPECT_LT(pim_done, inject_at + 3000);
}

TEST_F(ControllerTest, IdleReportsPendingWork)
{
    auto mc = make(true);
    EXPECT_TRUE(mc->idle());
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 1;
    mc->enqueueMem(std::move(job));
    EXPECT_FALSE(mc->idle());
    EXPECT_EQ(mc->pendingMemJobs(), 1u);
    eq.run();
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, CompletionsFireAfterThePassThenResume)
{
    // One arbitration pass at cycle 0 finishes A (bank 0), A2 (bank 1)
    // and Y1, then stops at the horizon: Y2 must wait out bank 0's
    // tRAS before its precharge. A's callback enqueues a follow-up B.
    const Cycle horizon = 64;
    auto mc = make(true, horizon);
    auto act_count = [&] {
        return mc->channel().commandCounts().count(CommandType::Act);
    };

    std::vector<Cycle> done; // completion cycles, in firing order
    std::vector<Cycle> fired_at; // eq.now() when each callback ran
    std::size_t queued_after_callbacks = 0;
    std::uint64_t acts_in_callback = 0;
    std::uint64_t acts_at_probe = 0;
    std::size_t queued_since_callbacks = 0;
    bool follow_up_done = false;

    auto add = [&](BankId bank, int row, bool follow_up) {
        MemJob job;
        job.bank = bank;
        job.row = row;
        job.bursts = 1;
        job.onComplete = [&, follow_up](Cycle c) {
            done.push_back(c);
            fired_at.push_back(eq.now());
            if (follow_up) {
                acts_in_callback = act_count();
                // Scheduled before B's kick, so it runs between this
                // pass and the pass that picks B up.
                eq.schedule(eq.now(), [&] {
                    acts_at_probe = act_count();
                    queued_since_callbacks =
                        eq.size() - queued_after_callbacks;
                });
                MemJob b;
                b.bank = 2;
                b.row = 0;
                b.bursts = 1;
                b.onComplete = [&](Cycle) { follow_up_done = true; };
                mc->enqueueMem(std::move(b));
            }
            queued_after_callbacks = eq.size();
        };
        mc->enqueueMem(std::move(job));
    };
    add(0, 0, /*follow_up=*/true); // A
    add(1, 0, false);              // A2
    for (int row = 1; row <= 4; ++row)
        add(0, row, false);        // Y1..Y4: row conflicts on bank 0
    eq.run();

    ASSERT_TRUE(mc->idle());
    ASSERT_EQ(done.size(), 6u);
    EXPECT_TRUE(follow_up_done);
    // A, A2 and Y1 complete in the first pass, at cycle 0.
    EXPECT_EQ(fired_at[0], 0u);
    EXPECT_EQ(fired_at[2], 0u);
    // Production order: each later burst lands later on the data bus.
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_LT(done[i - 1], done[i]) << "completion " << i;
    // B was not issued in the pass whose completion enqueued it: no
    // activation between A's callback and the probe after the pass.
    EXPECT_EQ(acts_at_probe, acts_in_callback);
    // Exactly one event, the horizon resume, was scheduled after the
    // pass's last callback returned and before the probe ran.
    EXPECT_EQ(queued_since_callbacks, 1u);
}

TEST_F(ControllerTest, WorkCountersOneScanPerIssuedCommand)
{
    // A BM_MemStream-style stream: whole rows round-robin over the
    // banks, all enqueued at cycle 0. The counters are host-independent,
    // so this gates the arbitration's work like a golden: a full rescan
    // on every horizon resume would read 2 scans per issued command.
    auto mc = make(true);
    const int rows = 1024;
    for (int i = 0; i < rows; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = org.burstsPerRow();
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    ASSERT_TRUE(mc->idle());
    const auto &s = mc->memSchedStats();
    std::uint64_t issues = s.memCommands + s.pimCommands;
    // One ACT and a row of bursts per job, plus the precharges.
    ASSERT_GE(issues,
              static_cast<std::uint64_t>(rows) * (1 + org.burstsPerRow()));
    EXPECT_LE(static_cast<double>(mc->candidateScans()),
              1.1 * static_cast<double>(issues));
    EXPECT_LE(mc->wakeups(), issues + static_cast<std::uint64_t>(rows));
}

} // namespace
} // namespace neupims::dram
