#include "dram/hbm.h"

namespace neupims::dram {

HbmStack::HbmStack(EventQueue &eq, const MemConfig &cfg)
    : HbmStack(eq, cfg, SymmetryGroups::identity(cfg.org.channels))
{}

HbmStack::HbmStack(EventQueue &eq, const MemConfig &cfg,
                   SymmetryGroups groups)
    : eq_(eq), cfg_(cfg), groups_(std::move(groups))
{
    NEUPIMS_ASSERT(static_cast<int>(groups_.representative.size()) ==
                   cfg_.org.channels);
    ctrls_.resize(cfg_.org.channels);
    for (int c = 0; c < cfg_.org.channels; ++c) {
        ChannelId rep = groups_.representative[c];
        NEUPIMS_ASSERT(rep >= 0 && rep < cfg_.org.channels &&
                           groups_.representative[rep] == rep,
                       "malformed symmetry groups at channel ", c);
        if (rep == c) {
            ctrls_[c] = std::make_unique<MemoryController>(
                eq_, cfg_.timing, cfg_.org, cfg_.ctrl);
        }
    }
}

bool
HbmStack::idle() const
{
    for (const auto &c : ctrls_) {
        if (c && !c->idle())
            return false;
    }
    return true;
}

// The aggregate walks every logical channel through controller(), so a
// folded member contributes its representative's (bit-identical) value
// in the same summation order as the unfolded simulation — keeping
// floating-point accumulations exactly equal with the fast path on or
// off.

Bytes
HbmStack::totalDataBusBytes() const
{
    Bytes total = 0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        total += controller(ch).channel().dataBusBytes();
    return total;
}

CommandCounts
HbmStack::totalCommandCounts() const
{
    CommandCounts total;
    for (ChannelId ch = 0; ch < numChannels(); ++ch) {
        const auto &counts = controller(ch).channel().commandCounts();
        for (int i = 0; i < kNumCommandTypes; ++i)
            total.counts[i] += counts.counts[i];
    }
    return total;
}

Cycle
HbmStack::totalPimBankBusyCycles() const
{
    double total = 0.0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        total += controller(ch).pimBankBusyCycles().value();
    return static_cast<Cycle>(total);
}

MemSchedStats
HbmStack::totalMemSchedStats() const
{
    MemSchedStats total;
    for (ChannelId ch = 0; ch < numChannels(); ++ch) {
        const auto &s = controller(ch).memSchedStats();
        total.rowHits += s.rowHits;
        total.rowMisses += s.rowMisses;
        total.rowConflicts += s.rowConflicts;
        total.memCommands += s.memCommands;
        total.pimCommands += s.pimCommands;
        total.modeSwitches += s.modeSwitches;
        total.pimStallCycles += s.pimStallCycles;
        total.pimWasteCycles += s.pimWasteCycles;
    }
    return total;
}

std::uint64_t
HbmStack::totalWakeups() const
{
    std::uint64_t total = 0;
    for (const auto &c : ctrls_)
        total += c ? c->wakeups() : 0;
    return total;
}

std::uint64_t
HbmStack::totalCandidateScans() const
{
    std::uint64_t total = 0;
    for (const auto &c : ctrls_)
        total += c ? c->candidateScans() : 0;
    return total;
}

double
HbmStack::memBankUtilization(Cycle window_start, Cycle window_end) const
{
    if (window_end <= window_start)
        return 0.0;
    double busy = 0.0;
    double banks = 0.0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch) {
        for (Cycle c : controller(ch).memBankBusyCycles())
            busy += static_cast<double>(c);
        banks += static_cast<double>(cfg_.org.banksPerChannel);
    }
    return busy /
           (banks * static_cast<double>(window_end - window_start));
}

double
HbmStack::dataBusUtilization(Cycle window_start, Cycle window_end)
{
    double sum = 0.0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        sum += controller(ch).channel().dataBusUtil().utilization(
            window_start, window_end);
    return sum / static_cast<double>(numChannels());
}

double
HbmStack::pimUtilization(Cycle window_start, Cycle window_end) const
{
    if (window_end <= window_start)
        return 0.0;
    double busy = static_cast<double>(totalPimBankBusyCycles());
    double capacity =
        static_cast<double>(window_end - window_start) *
        pimCapacityBanks();
    return busy / capacity;
}

ChannelActivity
HbmStack::channelActivity(ChannelId ch, Cycle window) const
{
    const auto &ctrl = controller(ch);
    ChannelActivity a;
    a.windowCycles = window;
    a.counts = ctrl.channel().commandCounts();
    a.pimBankBusyCycles =
        static_cast<Cycle>(ctrl.pimBankBusyCycles().value());
    a.dualRowBuffers = ctrl.config().dualRowBuffers;
    return a;
}

} // namespace neupims::dram
