/**
 * @file
 * Pinned-schedule equivalence across the controller configuration
 * space: a seeded mixed MEM/PIM stream, with jobs arriving mid-run
 * from scheduled events and from completion callbacks (so enqueues
 * land between a horizon stop and its resume), must reproduce the
 * recorded schedule exactly. The hash covers every completion cycle,
 * the channel's CommandCounts and the policy's MemSchedStats; the
 * pinned values were recorded before the controller's arbitration
 * became incremental and lock it to the full-rescan schedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "common/rng.h"
#include "dram/controller.h"

namespace neupims::dram {
namespace {

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

struct ScheduleCase
{
    bool dual;
    bool composite;
    bool header;
    MemSchedKind sched;
    Cycle horizon;
    std::uint64_t pinned;
};

std::string
caseName(const ScheduleCase &c)
{
    std::string s = c.dual ? "dual" : "blocked";
    s += c.composite ? "_composite" : "_fine";
    s += c.header ? "_header" : "_noheader";
    s += "_";
    for (char ch : std::string(memSchedKindName(c.sched)))
        s += ch == '-' ? '_' : ch;
    s += "_h" + std::to_string(c.horizon);
    return s;
}

std::uint64_t
runPinnedSchedule(const ScheduleCase &c)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(c.dual);
    cfg.horizon = c.horizon;
    cfg.sched.kind = c.sched;
    MemoryController mc(eq, t, org, cfg);

    Rng rng(0x5c4ed);
    Fnv hash;
    std::uint64_t next_id = 0;
    std::function<void(bool)> enqueue_mem;
    enqueue_mem = [&](bool may_chain) {
        MemJob job;
        std::uint64_t id = next_id++;
        job.bank = static_cast<BankId>(
            rng.uniformInt(0, org.banksPerChannel - 1));
        job.row = static_cast<int>(rng.uniformInt(0, 15));
        job.bursts = static_cast<int>(rng.uniformInt(1, 16));
        job.write = rng.uniform() < 0.25;
        // Some completions enqueue a follow-up from inside the
        // callback, i.e. before the same wake schedules its resume.
        bool chain = may_chain && rng.uniform() < 0.15;
        job.onComplete = [&, id, chain](Cycle at) {
            hash.add(id);
            hash.add(at);
            if (chain)
                enqueue_mem(false);
        };
        mc.enqueueMem(std::move(job));
    };
    auto enqueue_pim = [&] {
        PimJob job;
        std::uint64_t id = next_id++;
        job.rowTiles = static_cast<int>(rng.uniformInt(1, 64));
        job.banksUsed = t.pimParallelBanks;
        job.gwrites = static_cast<int>(rng.uniformInt(0, 2));
        job.resultBursts = static_cast<int>(rng.uniformInt(1, 4));
        job.composite = c.composite;
        job.header = c.header;
        job.onComplete = [&, id](Cycle at) {
            hash.add(id);
            hash.add(at);
        };
        mc.enqueuePim(std::move(job));
    };
    auto enqueue_any = [&] {
        if (rng.uniform() < 0.8)
            enqueue_mem(true);
        else
            enqueue_pim();
    };

    for (int i = 0; i < 160; ++i)
        enqueue_any();
    // Arrivals spread over the busy period land between horizon stops
    // and their resumes.
    for (int i = 0; i < 120; ++i)
        eq.schedule(rng.uniformInt(1, 60000), enqueue_any);
    eq.run();
    EXPECT_TRUE(mc.idle());

    const auto &counts = mc.channel().commandCounts();
    for (int i = 0; i < kNumCommandTypes; ++i)
        hash.add(counts.counts[i]);
    const auto &s = mc.memSchedStats();
    for (std::uint64_t v :
         {s.rowHits, s.rowMisses, s.rowConflicts, s.memCommands,
          s.pimCommands, s.modeSwitches})
        hash.add(v);
    hash.add(s.pimStallCycles);
    hash.add(s.pimWasteCycles);
    hash.add(mc.completedMemJobs());
    hash.add(mc.completedPimJobs());
    return hash.h;
}

class PinnedSchedule : public ::testing::TestWithParam<ScheduleCase>
{};

TEST_P(PinnedSchedule, MatchesRecordedSchedule)
{
    const auto &c = GetParam();
    std::uint64_t got = runPinnedSchedule(c);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.pinned) << caseName(c) << " hashed " << hex;
}

constexpr MemSchedKind kFr = MemSchedKind::FrFcfs;
constexpr MemSchedKind kPimFr = MemSchedKind::PimFrFcfs;
constexpr MemSchedKind kPaws = MemSchedKind::Paws;

// {dual, composite, header, policy, horizon, pinned hash}
const ScheduleCase kCases[] = {
    {false, false, false, kFr, 16, 0x01355624de1f9c86},
    {false, false, false, kFr, 256, 0x874f5afeeedf176f},
    {false, false, false, kPimFr, 16, 0x01355624de1f9c86},
    {false, false, false, kPimFr, 256, 0x874f5afeeedf176f},
    {false, false, false, kPaws, 16, 0x01355624de1f9c86},
    {false, false, false, kPaws, 256, 0x874f5afeeedf176f},
    {false, false, true, kFr, 16, 0x5ad3c276c683ab90},
    {false, false, true, kFr, 256, 0xbd4dd9ea9223a8ad},
    {false, false, true, kPimFr, 16, 0x5ad3c276c683ab90},
    {false, false, true, kPimFr, 256, 0xbd4dd9ea9223a8ad},
    {false, false, true, kPaws, 16, 0x5ad3c276c683ab90},
    {false, false, true, kPaws, 256, 0xbd4dd9ea9223a8ad},
    {false, true, false, kFr, 16, 0xf80f443944552875},
    {false, true, false, kFr, 256, 0x6843890ea2bd017d},
    {false, true, false, kPimFr, 16, 0xf80f443944552875},
    {false, true, false, kPimFr, 256, 0x6843890ea2bd017d},
    {false, true, false, kPaws, 16, 0xf80f443944552875},
    {false, true, false, kPaws, 256, 0x6843890ea2bd017d},
    {false, true, true, kFr, 16, 0x692b7925847cfe16},
    {false, true, true, kFr, 256, 0x9d3bc95557c8f70f},
    {false, true, true, kPimFr, 16, 0x692b7925847cfe16},
    {false, true, true, kPimFr, 256, 0x9d3bc95557c8f70f},
    {false, true, true, kPaws, 16, 0x692b7925847cfe16},
    {false, true, true, kPaws, 256, 0x9d3bc95557c8f70f},
    {true, false, false, kFr, 16, 0x6dfbc9935f9457d2},
    {true, false, false, kFr, 256, 0x152d42df7c10499a},
    {true, false, false, kPimFr, 16, 0x6fe1fdbff3bfe845},
    {true, false, false, kPimFr, 256, 0x26670a16fc48c7db},
    {true, false, false, kPaws, 16, 0x3832faf4d3d8af95},
    {true, false, false, kPaws, 256, 0x3c143cc63a69d281},
    {true, false, true, kFr, 16, 0x0316767cfc91c439},
    {true, false, true, kFr, 256, 0xb80a644e213f2dd0},
    {true, false, true, kPimFr, 16, 0x9e31615530f59fbc},
    {true, false, true, kPimFr, 256, 0x6d6cef2e8ccf1f2a},
    {true, false, true, kPaws, 16, 0x8fe5b6f0a552998c},
    {true, false, true, kPaws, 256, 0x2f6ec694a0d4ca65},
    {true, true, false, kFr, 16, 0xb8259bac6fecc2a8},
    {true, true, false, kFr, 256, 0x3f5dae64219fccb0},
    {true, true, false, kPimFr, 16, 0xc4bce6a6ca223166},
    {true, true, false, kPimFr, 256, 0x64e2727943199c6f},
    {true, true, false, kPaws, 16, 0xe2f94cf4c9490e83},
    {true, true, false, kPaws, 256, 0xca2f9685aa5e75b9},
    {true, true, true, kFr, 16, 0xdfdf9343b2f72d99},
    {true, true, true, kFr, 256, 0x87637bbdca164401},
    {true, true, true, kPimFr, 16, 0xc917fcdb7e1422f0},
    {true, true, true, kPimFr, 256, 0x4636e3de8f57d45c},
    {true, true, true, kPaws, 16, 0x3f0ade43279006d4},
    {true, true, true, kPaws, 256, 0x56baeb3c95b8288e},
};

INSTANTIATE_TEST_SUITE_P(
    Configs, PinnedSchedule, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ScheduleCase> &pinfo) {
        return caseName(pinfo.param);
    });

} // namespace
} // namespace neupims::dram
