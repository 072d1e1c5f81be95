/**
 * @file
 * The full HBM-PIM memory of one NeuPIMs device: 32 channels, each
 * with its own memory controller (Table 2), plus aggregate statistics
 * used by the metrics and power layers.
 */

#ifndef NEUPIMS_DRAM_HBM_H_
#define NEUPIMS_DRAM_HBM_H_

#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"
#include "dram/controller.h"
#include "dram/power_model.h"

namespace neupims::dram {

struct MemConfig
{
    TimingParams timing;
    Organization org;
    ControllerConfig ctrl;
};

/**
 * Channel equivalence classes for the channel-symmetry fast path:
 * channels that will receive bit-identical job streams share one
 * simulated controller (the class representative). The identity
 * grouping (every channel its own representative) reproduces the
 * unfolded simulation exactly.
 */
struct SymmetryGroups
{
    /** Per-channel representative; representative(ch) == ch for the
     * channel that is actually simulated. */
    std::vector<ChannelId> representative;
    /** Per-channel size of the class the channel belongs to. */
    std::vector<int> classSize;
    int numClasses = 0;

    static SymmetryGroups
    identity(int channels)
    {
        SymmetryGroups g;
        g.representative.resize(channels);
        g.classSize.assign(channels, 1);
        for (ChannelId ch = 0; ch < channels; ++ch)
            g.representative[ch] = ch;
        g.numClasses = channels;
        return g;
    }
};

class HbmStack
{
  public:
    HbmStack(EventQueue &eq, const MemConfig &cfg);
    HbmStack(EventQueue &eq, const MemConfig &cfg, SymmetryGroups groups);

    int numChannels() const { return cfg_.org.channels; }

    /**
     * The controller simulating @p ch: its own when @p ch is a class
     * representative, the representative's otherwise (the fold means
     * a member channel's behavior is the representative's, replayed).
     */
    MemoryController &
    controller(ChannelId ch)
    {
        return *ctrls_.at(groups_.representative.at(ch));
    }
    const MemoryController &
    controller(ChannelId ch) const
    {
        return *ctrls_.at(groups_.representative.at(ch));
    }

    /** Whether @p ch is simulated (vs folded onto a representative). */
    bool
    isRepresentative(ChannelId ch) const
    {
        return groups_.representative.at(ch) == ch;
    }

    /** The representative channel of @p ch's equivalence class. */
    ChannelId
    representative(ChannelId ch) const
    {
        return groups_.representative.at(ch);
    }

    int classSize(ChannelId ch) const { return groups_.classSize.at(ch); }
    int symmetryClasses() const { return groups_.numClasses; }

    const MemConfig &config() const { return cfg_; }

    /** True when every channel is idle. */
    bool idle() const;

    // --- aggregate statistics -------------------------------------------

    /** Total bytes moved on all channel data buses. */
    Bytes totalDataBusBytes() const;

    /** Sum of per-channel command counts. */
    CommandCounts totalCommandCounts() const;

    /** Sum over channels and banks of PIM compute cycles. */
    Cycle totalPimBankBusyCycles() const;

    /** Sum of per-channel scheduling statistics (row hit/miss/conflict
     * classification, per-class command counts, mode switches, PIM
     * stall/waste integrals); folded channels contribute their
     * representative's bit-identical values. */
    MemSchedStats totalMemSchedStats() const;

    /** Host work counters (MemoryController::wakeups() and
     * candidateScans()) summed over the simulated controllers only: a
     * folded channel does no work of its own. */
    std::uint64_t totalWakeups() const;
    std::uint64_t totalCandidateScans() const;

    /** Mean MEM-side per-bank data-service fraction over a window:
     * 64 B beats served per bank against the window span. */
    double memBankUtilization(Cycle window_start, Cycle window_end) const;

    /** Mean data-bus utilization across channels over a window. */
    double dataBusUtilization(Cycle window_start, Cycle window_end);

    /**
     * Mean PIM compute utilization over a window: busy bank-cycles
     * against the *sustainable* compute capacity — the power envelope
     * allows only pimParallelBanks banks per channel to run their
     * datapaths concurrently (TimingParams), so that is the capacity
     * the utilization is measured against.
     */
    double pimUtilization(Cycle window_start, Cycle window_end) const;

    /** Sustainable concurrent PIM banks across the device. */
    double
    pimCapacityBanks() const
    {
        return static_cast<double>(cfg_.org.channels) *
               static_cast<double>(cfg_.timing.pimParallelBanks);
    }

    /** Build the power-model activity summary for channel @p ch. */
    ChannelActivity channelActivity(ChannelId ch, Cycle window) const;

  private:
    EventQueue &eq_;
    MemConfig cfg_;
    SymmetryGroups groups_;
    /** Indexed by channel; null for folded (non-representative) slots. */
    std::vector<std::unique_ptr<MemoryController>> ctrls_;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_HBM_H_
