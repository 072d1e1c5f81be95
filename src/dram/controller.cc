#include "dram/controller.h"

#include <algorithm>

namespace neupims::dram {

namespace {

/** Integer ceiling division. */
constexpr int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

} // namespace

MemoryController::MemoryController(EventQueue &eq,
                                   const TimingParams &timing,
                                   const Organization &org,
                                   ControllerConfig cfg)
    : eq_(eq), cfg_(cfg), channel_(timing, org, cfg.dualRowBuffers),
      sched_(makeMemSchedPolicy(cfg.sched)),
      memBankBusyCycles_(static_cast<std::size_t>(channel_.numBanks()), 0)
{
    NEUPIMS_ASSERT(channel_.numBanks() <= 64,
                   "bank occupancy mask holds at most 64 banks");
    memInFlight_.reserve(cfg_.memIssueWindow);
    // Reserve the transaction queues up front: the DMA engine enqueues
    // a whole tensor stream's row jobs at once, and growth inside
    // enqueueMem was a measurable cost (the upstream NewtonSim
    // controller notes the same under-reservation).
    memQueue_.reserve(4096);
    pimQueue_.reserve(256);
}

void
MemoryController::enqueueMem(MemJob job)
{
    NEUPIMS_ASSERT(job.bank >= 0 && job.bank < channel_.numBanks());
    NEUPIMS_ASSERT(job.bursts >= 1 &&
                   job.bursts <= channel_.organization().burstsPerRow());
    memQueue_.push_back(std::move(job));
    kick();
}

void
MemoryController::enqueuePim(PimJob job)
{
    NEUPIMS_ASSERT(job.rowTiles >= 1);
    NEUPIMS_ASSERT(job.banksUsed >= 1 &&
                   job.banksUsed <= channel_.numBanks());
    pimQueue_.push_back(std::move(job));
    kick();
}

bool
MemoryController::idle() const
{
    return memQueue_.empty() && pimQueue_.empty() &&
           memInFlight_.empty() && !pim_;
}

std::size_t
MemoryController::pendingMemJobs() const
{
    return memQueue_.size() + memInFlight_.size();
}

std::size_t
MemoryController::pendingPimJobs() const
{
    return pimQueue_.size() + (pim_ ? 1 : 0);
}

void
MemoryController::kick()
{
    // A new job can beat the stopped pass's candidates.
    stop_.valid = false;
    Cycle now = eq_.now();
    if (kickScheduled_ && nextKickAt_ <= now)
        return;
    kickScheduled_ = true;
    nextKickAt_ = now;
    eq_.schedule(now, [this] { wake(); });
}

void
MemoryController::wake()
{
    ++wakeups_;
    kickScheduled_ = false;
    nextKickAt_ = kCycleMax;
    Cycle resume = process();
    // Callbacks may enqueue onto this controller; that only kicks
    // (schedules) another pass and never re-enters process(), so
    // completions_ is stable while it is walked.
    for (Completion &c : completions_)
        c.fn(c.at);
    completions_.clear();
    // The resume goes in after the callbacks, so an event a callback
    // schedules at the resume cycle keeps the lower sequence number.
    if (resume != kCycleMax)
        eq_.schedule(resume, [this] { wake(); });
}

void
MemoryController::refillMemWindow()
{
    // Blocked-mode PIM (baseline single-row-buffer devices) stalls all
    // regular memory traffic while a PIM kernel is queued or running.
    if (cfg_.blockedMode && (pim_ || !pimQueue_.empty()))
        return;
    while (static_cast<int>(memInFlight_.size()) < cfg_.memIssueWindow &&
           !memQueue_.empty()) {
        // Keep at most one in-flight job per bank so an incoming job
        // cannot precharge a row a sibling is still bursting on.
        BankId bank = memQueue_.front().bank;
        if (banksBusyMask_ & (1ULL << bank))
            break;
        MemExec exec;
        exec.job = std::move(memQueue_.front());
        memQueue_.pop_front();
        exec.enqueued = eq_.now();
        exec.seq = memSeq_++;
        updateLocal(exec);
        banksBusyMask_ |= 1ULL << bank;
        memInFlight_.push_back(std::move(exec));
    }
}

void
MemoryController::startNextPimKernel()
{
    if (pim_ || pimQueue_.empty())
        return;
    // Blocked mode drains in-flight memory accesses before switching
    // the channel into PIM operation.
    if (cfg_.blockedMode && !memInFlight_.empty())
        return;
    pim_ = std::make_unique<PimExec>();
    pim_->job = std::move(pimQueue_.front());
    pimQueue_.pop_front();
    pim_->phase = pim_->job.header ? PimExec::Phase::Header
                                   : PimExec::Phase::Gwrite;
    if (pim_->job.gwrites == 0 && pim_->phase == PimExec::Phase::Gwrite)
        pim_->phase = PimExec::Phase::Group;
    pim_->rounds = ceilDiv(pim_->job.rowTiles, pim_->job.banksUsed);
    pim_->banksThisRound = std::min(pim_->job.rowTiles,
                                    pim_->job.banksUsed);
    pim_->groupsPerRound = ceilDiv(pim_->banksThisRound, 4);
    pim_->groupRowReady.assign(pim_->groupsPerRound, 0);
}

Cycle
MemoryController::candidateMem(int &which) const
{
    which = -1;
    if (cfg_.blockedMode && pim_)
        return kCycleMax;
    Cycle lb = std::max(eq_.now(), channel_.caNextFree());
    Cycle best = kCycleMax;
    std::uint64_t bestSeq = 0;
    for (int i = 0; i < static_cast<int>(memInFlight_.size()); ++i) {
        const auto &m = memInFlight_[i];
        Cycle c = std::max(lb, m.local);
        // Tie-break equal candidate cycles oldest-first: this matches
        // the former lowest-index rule (the in-flight vector used to
        // stay in admission order) while allowing swap-and-pop.
        if (c < best || (c == best && m.seq < bestSeq)) {
            best = c;
            bestSeq = m.seq;
            which = i;
        }
    }
    return best;
}

void
MemoryController::updateLocal(MemExec &m) const
{
    // Every earliest-issue query is a max over its constraints, so the
    // job's candidate splits into max(now, caNextFree, local), with
    // enqueued folded into local. The queries also fold in the C/A
    // bus as it is now; the bus only moves forward, so the candidate's
    // max with the current caNextFree() absorbs that stale term.
    BankId b = m.job.bank;
    ConstBankRef bank = channel_.bank(b);
    int open = bank.openRow(BufferSide::Mem);
    if (m.phase == MemExec::Phase::Bursts || open == m.job.row) {
        m.local = channel_.earliestColumn(b, BufferSide::Mem, m.enqueued);
    } else if (open != -1) {
        m.local = channel_.earliestCa(
            std::max(m.enqueued, bank.earliestPrecharge(BufferSide::Mem)));
    } else {
        m.local = channel_.earliestActivate(b, BufferSide::Mem, m.enqueued);
    }
}

void
MemoryController::updateAllLocals()
{
    for (auto &m : memInFlight_)
        updateLocal(m);
}

Cycle
MemoryController::candidatePim() const
{
    if (!pim_)
        return kCycleMax;
    const auto &p = *pim_;
    const auto &t = channel_.timing();
    Cycle lb = eq_.now();
    switch (p.phase) {
      case PimExec::Phase::Header:
        return channel_.earliestCa(lb);
      case PimExec::Phase::Gwrite:
        return channel_.earliestCa(std::max(lb, p.gwriteReady));
      case PimExec::Phase::Group: {
        // The operand vector must be staged before any dot-products.
        Cycle ready = std::max(lb, p.gwriteReady);
        bool needs_ca = !p.job.composite || p.group == 0;
        Cycle c = channel_.earliestPimActivateGroup(
            p.group * 4, std::min(4, p.banksThisRound - p.group * 4),
            ready, needs_ca);
        if (!p.job.header) {
            // Without PIM_HEADER the controller cannot bound the
            // kernel's latency, so it conservatively refuses to start
            // a round inside the guard window before a refresh (§5.2).
            Cycle due = channel_.nextRefreshDue();
            if (c + t.refreshGuard > due)
                c = std::max(c, due);
        }
        return c;
      }
      case PimExec::Phase::DotProduct:
        return channel_.earliestCa(
            std::max(lb, p.groupRowReady[p.dotProductsDone / 4]));
      case PimExec::Phase::RoundResult:
        return channel_.earliestCa(std::max(lb, p.roundComputeEnd));
      case PimExec::Phase::FinalResult:
        return std::max(lb, p.kernelComputeEnd);
      case PimExec::Phase::Precharge:
        return channel_.earliestCa(
            std::max({lb, p.kernelComputeEnd, p.resultEnd}));
      case PimExec::Phase::Done:
        return kCycleMax;
    }
    return kCycleMax;
}

void
MemoryController::stepMem(int which)
{
    auto &m = memInFlight_[which];
    BankRef bank = channel_.bank(m.job.bank);
    Cycle lb = std::max(m.enqueued, eq_.now());

    if (m.phase == MemExec::Phase::PreOrAct) {
        int open = bank.openRow(BufferSide::Mem);
        if (!m.classified) {
            sched_->noteRowOutcome(m.job.bank, m.job.row,
                                   open == m.job.row ? RowOutcome::Hit
                                   : open != -1      ? RowOutcome::Conflict
                                                     : RowOutcome::Miss);
            m.classified = true;
        }
        if (open == m.job.row) {
            m.phase = MemExec::Phase::Bursts; // row hit, fall through
        } else if (open != -1) {
            channel_.issuePrecharge(m.job.bank, BufferSide::Mem, lb);
            updateLocal(m);
            return;
        } else {
            channel_.issueActivate(m.job.bank, BufferSide::Mem,
                                   m.job.row, lb);
            m.phase = MemExec::Phase::Bursts;
            updateLocal(m);
            // The ACT moved the tFAW/tRRD window, which bounds every
            // closed-bank candidate (and only those).
            for (auto &o : memInFlight_) {
                if (o.phase == MemExec::Phase::PreOrAct &&
                    channel_.bank(o.job.bank).openRow(BufferSide::Mem) ==
                        -1)
                    updateLocal(o);
            }
            return;
        }
    }

    auto [cmd, data_end] =
        m.job.write ? channel_.issueWrite(m.job.bank, BufferSide::Mem, lb)
                    : channel_.issueRead(m.job.bank, BufferSide::Mem, lb);
    (void)cmd;
    m.lastBurstEnd = data_end;
    memBankBusyCycles_[static_cast<std::size_t>(m.job.bank)] +=
        channel_.timing().tBL;
    if (++m.burstsDone == m.job.bursts) {
        banksBusyMask_ &= ~(1ULL << m.job.bank);
        finishMem(m);
        // Swap-and-pop: candidate selection orders by (cycle, seq),
        // not index, so in-flight order is free to shuffle.
        if (which != static_cast<int>(memInFlight_.size()) - 1)
            memInFlight_[which] = std::move(memInFlight_.back());
        memInFlight_.pop_back();
    } else {
        updateLocal(m);
    }
}

void
MemoryController::finishMem(MemExec &exec)
{
    ++completedMemJobs_;
    sched_->noteMemJobCompleted();
    memQueueDelay_.sample(
        static_cast<double>(exec.lastBurstEnd - exec.enqueued));
    // Callback contract: invoked as soon as the completion cycle is
    // *known* (commands are committed ahead of simulated time up to
    // the horizon); the Cycle argument is the authoritative completion
    // time and callers schedule their continuations at it. wake()
    // fires it after the arbitration pass, in production order.
    if (exec.job.onComplete)
        completions_.push_back(
            {std::move(exec.job.onComplete), exec.lastBurstEnd});
}

void
MemoryController::stepPim()
{
    auto &p = *pim_;
    const auto &t = channel_.timing();
    Cycle lb = eq_.now();

    switch (p.phase) {
      case PimExec::Phase::Header: {
        channel_.issuePimCaCommand(CommandType::PimHeader, lb);
        p.phase = p.job.gwrites > 0 ? PimExec::Phase::Gwrite
                                    : PimExec::Phase::Group;
        return;
      }
      case PimExec::Phase::Gwrite: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimGwrite, std::max(lb, p.gwriteReady));
        p.gwriteReady = when + t.tGWRITE;
        if (++p.gwritesDone == p.job.gwrites)
            p.phase = PimExec::Phase::Group;
        return;
      }
      case PimExec::Phase::Group: {
        Cycle ready = std::max(lb, p.gwriteReady);
        if (!p.job.header) {
            Cycle due = channel_.nextRefreshDue();
            Cycle est = channel_.earliestPimActivateGroup(
                p.group * 4,
                std::min(4, p.banksThisRound - p.group * 4), ready,
                !p.job.composite || p.group == 0);
            if (est + t.refreshGuard > due)
                ready = std::max(ready, due);
        }
        if (p.job.composite && p.group == 0) {
            // One composite PIM_GEMV command drives the whole round:
            // activation waves and dot-products are sequenced
            // internally and occupy no further C/A slots (Fig. 9b).
            ready = channel_.issuePimCaCommand(CommandType::PimGemv,
                                               ready);
        }
        int first = p.group * 4;
        int nbanks = std::min(4, p.banksThisRound - first);
        Cycle act = channel_.issuePimActivateGroup(
            first, nbanks, /*row=*/p.round, ready,
            /*charge_ca=*/!p.job.composite);
        Cycle row_ready = act + t.tRCD;
        p.groupRowReady[p.group] = row_ready;
        if (p.job.composite) {
            // Composite mode: compute is triggered internally as soon
            // as the row is ready.
            Cycle end = row_ready + t.pimComputePerRow;
            pimBankBusyCycles_.add(
                static_cast<double>(nbanks) *
                static_cast<double>(t.pimComputePerRow));
            channel_.recordPimCompute(row_ready, end);
            p.roundComputeEnd = std::max(p.roundComputeEnd, end);
            p.kernelComputeEnd = std::max(p.kernelComputeEnd, end);
        }
        if (++p.group == p.groupsPerRound) {
            if (p.job.composite) {
                p.rowsIssued += p.banksThisRound;
                advanceRound();
            } else {
                p.phase = PimExec::Phase::DotProduct;
                p.dotProductsDone = 0;
            }
        }
        return;
      }
      case PimExec::Phase::DotProduct: {
        // Fine-grained baseline: every bank's dot-product needs its
        // own command on the C/A bus (Fig. 9a).
        Cycle row_ready = p.groupRowReady[p.dotProductsDone / 4];
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimDotProduct, std::max(lb, row_ready));
        Cycle start = std::max(when + 1, row_ready);
        Cycle end = start + t.pimComputePerRow;
        pimBankBusyCycles_.add(static_cast<double>(t.pimComputePerRow));
        channel_.recordPimCompute(start, end);
        p.roundComputeEnd = std::max(p.roundComputeEnd, end);
        p.kernelComputeEnd = std::max(p.kernelComputeEnd, end);
        if (++p.dotProductsDone == p.banksThisRound)
            p.phase = PimExec::Phase::RoundResult;
        return;
      }
      case PimExec::Phase::RoundResult: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimRdResult, std::max(lb, p.roundComputeEnd));
        int bursts = std::max(
            1, ceilDiv(p.banksThisRound * 4,
                       static_cast<int>(
                           channel_.organization().burstBytes)));
        auto [ds, de] = channel_.reserveDataBus(when + t.tCL, bursts);
        (void)ds;
        p.resultEnd = std::max(p.resultEnd, de);
        p.rowsIssued += p.banksThisRound;
        advanceRound();
        return;
      }
      case PimExec::Phase::FinalResult: {
        auto [ds, de] = channel_.reserveDataBus(
            std::max(lb, p.kernelComputeEnd),
            std::max(1, p.job.resultBursts));
        (void)ds;
        p.resultEnd = std::max(p.resultEnd, de);
        p.phase = PimExec::Phase::Precharge;
        return;
      }
      case PimExec::Phase::Precharge: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimPrecharge,
            std::max({lb, p.kernelComputeEnd, p.resultEnd}));
        auto &banks = channel_.banks();
        for (int b = 0; b < p.job.banksUsed; ++b) {
            Cycle w = std::max(
                when, banks.earliestPrecharge(b, BufferSide::Pim));
            banks.precharge(b, BufferSide::Pim, w);
        }
        p.phase = PimExec::Phase::Done;
        finishPim(std::max(p.resultEnd, p.kernelComputeEnd));
        return;
      }
      case PimExec::Phase::Done:
        return;
    }
}

void
MemoryController::advanceRound()
{
    auto &p = *pim_;
    if (++p.round < p.rounds) {
        p.banksThisRound = std::min(p.job.rowTiles - p.rowsIssued,
                                    p.job.banksUsed);
        p.groupsPerRound = ceilDiv(p.banksThisRound, 4);
        p.groupRowReady.assign(p.groupsPerRound, 0);
        p.group = 0;
        p.phase = PimExec::Phase::Group;
    } else {
        p.phase = p.job.composite ? PimExec::Phase::FinalResult
                                  : PimExec::Phase::Precharge;
    }
}

void
MemoryController::finishPim(Cycle done)
{
    ++completedPimJobs_;
    auto job = std::move(pim_->job);
    pim_.reset();
    // Same callback contract as finishMem.
    if (job.onComplete)
        completions_.push_back({std::move(job.onComplete), done});
}

bool
MemoryController::maybeRefresh(Cycle when)
{
    if (channel_.nextRefreshDue() > when)
        return false;
    // An announced (PIM_HEADER'd) kernel lets the controller postpone
    // the refresh — up to the JEDEC budget — instead of splitting the
    // kernel (§5.2).
    if (pim_ && pim_->job.header && pim_->phase != PimExec::Phase::Done) {
        if (channel_.postponeRefresh())
            return false;
    }
    channel_.issueRefresh(std::max(channel_.nextRefreshDue(), eq_.now()));
    return true;
}

Cycle
MemoryController::process()
{
    // Between a horizon stop and its resume nothing this controller
    // owns changes (an enqueue drops stop_), and every candidate is a
    // max over `now` and now-independent terms. So while the stopped
    // candidates are not behind now, they are exactly what a rescan
    // would return. A policy that chose the later class can leave the
    // other one behind; that resume rescans.
    bool reuse = stop_.valid && std::min(stop_.cm, stop_.cp) >= eq_.now();
    stop_.valid = false;
    while (true) {
        int mem_idx = -1;
        Cycle cm = kCycleMax;
        Cycle cp = kCycleMax;
        if (reuse) {
            reuse = false;
            cm = stop_.cm;
            cp = stop_.cp;
            mem_idx = stop_.memIdx;
        } else {
            refillMemWindow();
            startNextPimKernel();
            ++candidateScans_;
            cm = candidateMem(mem_idx);
            cp = candidatePim();
        }
        if (cm == kCycleMax && cp == kCycleMax)
            return kCycleMax; // idle: nothing queued or in flight

        ArbView v;
        v.cm = cm;
        v.cp = cp;
        v.now = eq_.now();
        v.memPending = pendingMemJobs();
        v.pimPending = pendingPimJobs();
        if (mem_idx >= 0) {
            const auto &m = memInFlight_[mem_idx];
            v.memBank = m.job.bank;
            v.memRow = m.job.row;
            v.memIsRowHit =
                m.phase == MemExec::Phase::Bursts ||
                channel_.bank(m.job.bank).openRow(BufferSide::Mem) ==
                    m.job.row;
        }

        // The policy arbitrates only when both classes hold a legal
        // command; a lone class always issues (no policy can idle the
        // channel's only available work). Under FR-FCFS the chosen
        // candidate is min(cm, cp) — PIM takes priority on ties
        // (§5.3) — reproducing the historical schedule bit-for-bit.
        bool pick_pim;
        if (cp == kCycleMax)
            pick_pim = false;
        else if (cm == kCycleMax)
            pick_pim = true;
        else
            pick_pim = sched_->choosePim(v);

        Cycle cand = pick_pim ? cp : cm;
        if (maybeRefresh(cand)) {
            updateAllLocals(); // REF closed every bank
            continue;          // constraints changed; recompute
        }

        if (cand > eq_.now() + cfg_.horizon) {
            // Do not reserve bus slots far beyond simulated time: a
            // job arriving meanwhile deserves its priority. Resume
            // when the candidate enters the horizon. wake() cleared
            // the kick marker and nothing re-arms it mid-pass.
            kickScheduled_ = true;
            nextKickAt_ = cand - cfg_.horizon;
            stop_ = {true, cm, cp, mem_idx};
            return nextKickAt_;
        }

        sched_->recordIssue(v, pick_pim);
        if (pick_pim) {
            stepPim();
            updateAllLocals(); // PIM ACT/PRE touch bank and ACT state
        } else {
            stepMem(mem_idx);
        }
    }
}

} // namespace neupims::dram
