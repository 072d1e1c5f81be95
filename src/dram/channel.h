/**
 * @file
 * One HBM pseudo-channel: banks, shared C/A bus, shared data bus,
 * activation power window (tFAW/tRRD) and refresh bookkeeping.
 *
 * The channel is the unit the NeuPIMs scheduler allocates requests to
 * (§5.3): it owns 32 PIM banks and one memory controller. This class
 * holds the *timing state* and exposes issue primitives that compute
 * the earliest legal issue cycle for a command and commit its side
 * effects; policy (queueing, MEM/PIM interleaving, blocked mode) lives
 * in MemoryController.
 */

#ifndef NEUPIMS_DRAM_CHANNEL_H_
#define NEUPIMS_DRAM_CHANNEL_H_

#include <array>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace neupims::dram {

class Channel
{
  public:
    Channel(const TimingParams &timing, const Organization &org,
            bool dual_row_buffers);

    const TimingParams &timing() const { return *timing_; }
    const Organization &organization() const { return *org_; }
    int numBanks() const { return banks_.size(); }
    BankRef bank(BankId b) { return BankRef(banks_, b); }
    ConstBankRef bank(BankId b) const { return ConstBankRef(banks_, b); }
    /** The channel's SoA bank state (dense whole-channel scans). */
    BankArray &banks() { return banks_; }
    const BankArray &banks() const { return banks_; }
    bool dualRowBuffers() const { return dualRowBuffers_; }

    /** Bank group of a bank id (4 banks per group, Table 2). */
    int bankGroup(BankId b) const { return b / org_->banksPerGroup; }

    // ------------------------------------------------------------------
    // Earliest-issue queries (no side effects).
    // ------------------------------------------------------------------

    /** Earliest cycle the C/A bus can carry a command. */
    Cycle earliestCa(Cycle not_before) const;

    /** Cycle the C/A bus frees up; it only ever moves forward. */
    Cycle caNextFree() const { return caNextFree_; }

    /**
     * Earliest legal ACTIVATE to @p bank on @p side at or after
     * @p not_before, honoring bank state, tRRD, tFAW, C/A bus and any
     * pending refresh window.
     */
    Cycle earliestActivate(BankId bank, BufferSide side,
                           Cycle not_before) const;

    /** Earliest legal column command (RD/WR) to @p bank on @p side. */
    Cycle earliestColumn(BankId bank, BufferSide side,
                         Cycle not_before) const;

    // ------------------------------------------------------------------
    // Issue primitives: compute earliest legal cycle >= not_before,
    // commit all side effects (bank state, buses, tFAW ring, counters)
    // and return the issue cycle.
    // ------------------------------------------------------------------

    Cycle issueActivate(BankId bank, BufferSide side, int row,
                        Cycle not_before);
    /** @return pair{issue cycle, cycle the read data burst completes}. */
    std::pair<Cycle, Cycle> issueRead(BankId bank, BufferSide side,
                                      Cycle not_before);
    std::pair<Cycle, Cycle> issueWrite(BankId bank, BufferSide side,
                                       Cycle not_before);
    Cycle issuePrecharge(BankId bank, BufferSide side, Cycle not_before);

    /** Issue an all-bank refresh; returns the cycle it completes. */
    Cycle issueRefresh(Cycle not_before);

    /**
     * Activate one PIM row in each of @p nbanks consecutive banks
     * starting at @p first (a grouped PIM_ACTIVATION, §5.2: 4 banks
     * per command due to the tFAW power budget; the group consumes one
     * slot of the activation window). When @p charge_ca is false the
     * activation is driven internally by a composite PIM_GEMV command
     * and occupies no C/A slot. @p row distinguishes successive tiles
     * so each round performs a genuine re-activation.
     * @return the activation cycle (row data ready tRCD later).
     */
    Cycle issuePimActivateGroup(BankId first, int nbanks, int row,
                                Cycle not_before, bool charge_ca);

    /** Earliest-issue query matching issuePimActivateGroup. */
    Cycle earliestPimActivateGroup(BankId first, int nbanks,
                                   Cycle not_before, bool needs_ca) const;

    /**
     * Account a PIM command on the C/A bus (header/gwrite/dot-product/
     * gemv/rd-result/pim-activate encodings are wider than regular
     * commands, §5.3). Returns the issue cycle.
     */
    Cycle issuePimCaCommand(CommandType type, Cycle not_before);

    /** Reserve the data bus for @p bursts back-to-back 64 B beats. */
    std::pair<Cycle, Cycle> reserveDataBus(Cycle not_before, int bursts);

    // ------------------------------------------------------------------
    // Refresh management.
    // ------------------------------------------------------------------

    /** Next cycle at which a refresh becomes due. */
    Cycle nextRefreshDue() const { return nextRefresh_; }

    /** Whether a refresh is overdue at @p now and must be issued. */
    bool refreshDue(Cycle now) const { return now >= nextRefresh_; }

    /**
     * Postpone the due refresh because an announced (PIM_HEADER'd) PIM
     * kernel is in flight; JEDEC allows deferring up to 8 intervals.
     * Returns false if the postpone budget is exhausted.
     */
    bool postponeRefresh();

    // ------------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------------

    const CommandCounts &commandCounts() const { return counts_; }
    Bytes dataBusBytes() const { return dataBusBytes_; }
    UtilizationTracker &dataBusUtil() { return dataBusUtil_; }
    UtilizationTracker &caBusUtil() { return caBusUtil_; }
    UtilizationTracker &pimComputeUtil() { return pimComputeUtil_; }

    /** Record per-bank PIM adder-tree busy time (utilization stat). */
    void
    recordPimCompute(Cycle start, Cycle end)
    {
        pimComputeUtil_.addBusy(start, end);
    }

  private:
    /** Earliest ACT cycle satisfying tFAW and tRRD at channel level. */
    Cycle actWindowConstraint(BankId bank, Cycle not_before) const;
    /** Commit an ACT at @p when into the tFAW ring / tRRD tracker. */
    void recordActivate(BankId bank, Cycle when);

    const TimingParams *timing_;
    const Organization *org_;
    bool dualRowBuffers_;

    BankArray banks_; ///< SoA per-bank state for the whole channel

    Cycle caNextFree_ = 0;
    Cycle dataNextFree_ = 0;

    /** Ring of the last four ACT issue cycles (tFAW window). */
    std::array<Cycle, 4> actRing_ = {};
    int actRingHead_ = 0;
    Cycle lastActAny_ = 0;      ///< for tRRD_S
    std::vector<Cycle> lastActPerGroup_; ///< for tRRD_L

    Cycle nextRefresh_;
    int postponedRefreshes_ = 0;

    CommandCounts counts_;
    Bytes dataBusBytes_ = 0;
    UtilizationTracker dataBusUtil_;
    UtilizationTracker caBusUtil_;
    UtilizationTracker pimComputeUtil_;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_CHANNEL_H_
