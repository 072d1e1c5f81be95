#include "dram/channel.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::dram {

Channel::Channel(const TimingParams &timing, const Organization &org,
                 bool dual_row_buffers)
    : timing_(&timing), org_(&org), dualRowBuffers_(dual_row_buffers),
      banks_(timing, dual_row_buffers, org.banksPerChannel),
      lastActPerGroup_(org.bankGroups(), 0), nextRefresh_(timing.tREFI)
{}

Cycle
Channel::earliestCa(Cycle not_before) const
{
    return std::max(not_before, caNextFree_);
}

Cycle
Channel::actWindowConstraint(BankId bank, Cycle not_before) const
{
    // Activation times are stored shifted by +1 so that 0 can mean
    // "no previous activation" even when the first ACT lands at
    // cycle 0.
    const auto &t = *timing_;
    Cycle when = not_before;
    // tFAW: at most 4 activations per sliding window. The ring holds
    // the last four ACT cycles; the next ACT must wait until the
    // oldest leaves the window.
    Cycle oldest = actRing_[actRingHead_];
    if (oldest > 0)
        when = std::max(when, (oldest - 1) + t.tFAW);
    // tRRD: ACT-to-ACT spacing, long within a bank group.
    if (lastActAny_ > 0)
        when = std::max(when, (lastActAny_ - 1) + t.tRRD_S);
    Cycle group_last = lastActPerGroup_[bankGroup(bank)];
    if (group_last > 0)
        when = std::max(when, (group_last - 1) + t.tRRD_L);
    return when;
}

void
Channel::recordActivate(BankId bank, Cycle when)
{
    actRing_[actRingHead_] = when + 1;
    actRingHead_ = (actRingHead_ + 1) % static_cast<int>(actRing_.size());
    lastActAny_ = std::max(lastActAny_, when + 1);
    lastActPerGroup_[bankGroup(bank)] =
        std::max(lastActPerGroup_[bankGroup(bank)], when + 1);
}

Cycle
Channel::earliestActivate(BankId bank, BufferSide side,
                          Cycle not_before) const
{
    Cycle when = banks_.earliestActivate(bank, side);
    when = std::max(when, not_before);
    when = actWindowConstraint(bank, when);
    when = std::max(when, caNextFree_);
    return when;
}

Cycle
Channel::earliestColumn(BankId bank, BufferSide side,
                        Cycle not_before) const
{
    Cycle when = banks_.earliestColumn(bank, side);
    when = std::max(when, not_before);
    when = std::max(when, caNextFree_);
    return when;
}

Cycle
Channel::issueActivate(BankId bank, BufferSide side, int row,
                       Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = earliestActivate(bank, side, not_before);
    banks_.activate(bank, side, row, when);
    recordActivate(bank, when);
    caNextFree_ = when + t.caMemCmd;
    caBusUtil_.addBusy(when, when + t.caMemCmd);
    counts_.record(side == BufferSide::Pim ? CommandType::PimActivate
                                           : CommandType::Act);
    return when;
}

std::pair<Cycle, Cycle>
Channel::issueRead(BankId bank, BufferSide side, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = earliestColumn(bank, side, not_before);
    // The data burst lands tCL after the column command and must find
    // the data bus free; push the issue cycle until it does.
    Cycle burst_start = std::max(when + t.tCL, dataNextFree_);
    when = burst_start - t.tCL;
    banks_.read(bank, side, when);
    caNextFree_ = when + t.caMemCmd;
    caBusUtil_.addBusy(when, when + t.caMemCmd);
    dataNextFree_ = burst_start + t.tBL;
    dataBusUtil_.addBusy(burst_start, burst_start + t.tBL);
    dataBusBytes_ += org_->burstBytes;
    counts_.record(CommandType::Rd);
    return {when, burst_start + t.tBL};
}

std::pair<Cycle, Cycle>
Channel::issueWrite(BankId bank, BufferSide side, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = earliestColumn(bank, side, not_before);
    Cycle burst_start = std::max(when + t.tCWL, dataNextFree_);
    when = burst_start - t.tCWL;
    banks_.write(bank, side, when);
    caNextFree_ = when + t.caMemCmd;
    caBusUtil_.addBusy(when, when + t.caMemCmd);
    dataNextFree_ = burst_start + t.tBL;
    dataBusUtil_.addBusy(burst_start, burst_start + t.tBL);
    dataBusBytes_ += org_->burstBytes;
    counts_.record(CommandType::Wr);
    return {when, burst_start + t.tBL};
}

Cycle
Channel::issuePrecharge(BankId bank, BufferSide side, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = std::max(not_before,
                          banks_.earliestPrecharge(bank, side));
    when = std::max(when, caNextFree_);
    banks_.precharge(bank, side, when);
    caNextFree_ = when + t.caMemCmd;
    caBusUtil_.addBusy(when, when + t.caMemCmd);
    counts_.record(side == BufferSide::Pim ? CommandType::PimPrecharge
                                           : CommandType::Pre);
    return when;
}

Cycle
Channel::issueRefresh(Cycle not_before)
{
    const auto &t = *timing_;
    // All banks must be precharged; wait for every bank to be
    // precharge-ready, then precharge implicitly (REF closes rows).
    Cycle when = std::max(not_before, caNextFree_);
    when = std::max(when, banks_.maxEarliestPrecharge());
    banks_.refreshAll(when);
    caNextFree_ = when + t.caMemCmd;
    caBusUtil_.addBusy(when, when + t.caMemCmd);
    counts_.record(CommandType::Ref);
    nextRefresh_ += t.tREFI * (1 + postponedRefreshes_);
    postponedRefreshes_ = 0;
    return when + t.tRFC;
}

Cycle
Channel::earliestPimActivateGroup(BankId first, int nbanks,
                                  Cycle not_before, bool needs_ca) const
{
    Cycle when = not_before;
    for (int i = 0; i < nbanks; ++i)
        when = std::max(when, banks_.earliestActivate(
                                  first + i, BufferSide::Pim));
    when = actWindowConstraint(first, when);
    if (needs_ca)
        when = std::max(when, caNextFree_);
    return when;
}

Cycle
Channel::issuePimActivateGroup(BankId first, int nbanks, int row,
                               Cycle not_before, bool charge_ca)
{
    const auto &t = *timing_;
    NEUPIMS_ASSERT(first + nbanks <= numBanks());
    Cycle when = earliestPimActivateGroup(first, nbanks, not_before,
                                          charge_ca);
    for (int i = 0; i < nbanks; ++i)
        banks_.activate(first + i, BufferSide::Pim, row, when);
    recordActivate(first, when);
    if (charge_ca) {
        caNextFree_ = when + t.caPimCmd;
        caBusUtil_.addBusy(when, when + t.caPimCmd);
        counts_.record(CommandType::PimActivate);
    }
    return when;
}

bool
Channel::postponeRefresh()
{
    // JEDEC allows postponing up to 8 refresh commands.
    if (postponedRefreshes_ >= 8)
        return false;
    ++postponedRefreshes_;
    nextRefresh_ += timing_->tREFI;
    return true;
}

Cycle
Channel::issuePimCaCommand(CommandType type, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = std::max(not_before, caNextFree_);
    caNextFree_ = when + t.caPimCmd;
    caBusUtil_.addBusy(when, when + t.caPimCmd);
    counts_.record(type);
    return when;
}

std::pair<Cycle, Cycle>
Channel::reserveDataBus(Cycle not_before, int bursts)
{
    const auto &t = *timing_;
    Cycle start = std::max(not_before, dataNextFree_);
    Cycle end = start + t.tBL * static_cast<Cycle>(bursts);
    dataNextFree_ = end;
    dataBusUtil_.addBusy(start, end);
    dataBusBytes_ += org_->burstBytes * static_cast<Bytes>(bursts);
    return {start, end};
}

} // namespace neupims::dram
