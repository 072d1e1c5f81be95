/**
 * @file
 * Per-channel memory controller (paper §5.3).
 *
 * The controller owns two queues — regular memory row-stream jobs
 * (NPU weight/activation/KV traffic) and PIM GEMV kernels — and
 * interleaves their commands on the channel's shared C/A bus.
 *
 * Modes reproduce the paper's design space:
 *  - blocked (baseline PIM, single row buffer): while a PIM kernel
 *    executes, no memory command may issue; the shared row buffer
 *    means PIM activations evict open MEM rows.
 *  - concurrent (NeuPIMs, dual row buffers): commands of both classes
 *    are merged in issue-time order with PIM commands prioritized on
 *    ties (§5.3: PIM priority keeps the slower PIM control path from
 *    starving while MEM commands fill the abundant C/A gaps, Fig. 9).
 *  - composite PIM_GEMV vs fine-grained PIM_DOTPRODUCT streams, and
 *    PIM_HEADER-based refresh scheduling vs a conservative refresh
 *    guard (§5.2).
 *
 * Dispatch is event-driven with a bounded reservation horizon: the
 * controller never commits bus slots more than `horizon` cycles ahead
 * of simulated time, so a PIM kernel arriving mid-phase observes at
 * most `horizon` cycles of priority staleness.
 *
 * Arbitration is incremental (DESIGN.md §3): each in-flight MEM job
 * caches its bank-local earliest issue cycle, and a pass that stops
 * at the horizon keeps its candidates for the resume wake, so the
 * controller runs about one candidate scan per issued command.
 *
 * Committed-schedule lifetime: a schedule (and its horizon-ahead
 * commitments) lives exactly as long as the controller object. The
 * executor rebuilds every controller per runIteration() call, and the
 * serving layer's channel-failure path (PagedKvCache::failChannel)
 * operates on capacity only — no MemoryController exists across a
 * failure, so an in-flight committed schedule can never be replayed
 * onto a failed channel. tests/runtime/test_controller_lifecycle.cc
 * locks this invariant.
 *
 * Arbitration between the two classes is pluggable (MemSchedPolicy,
 * dram/mem_sched.h): FR-FCFS reproduces the historical choice rule
 * bit-for-bit; PIM-FRFCFS and PAWS bias toward PIM with explicit
 * starvation caps and mode switching.
 */

#ifndef NEUPIMS_DRAM_CONTROLLER_H_
#define NEUPIMS_DRAM_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/ring_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/channel.h"
#include "dram/mem_sched.h"

namespace neupims::dram {

/** A regular memory access: one row's worth of reads or writes. */
struct MemJob
{
    BankId bank = 0;
    int row = 0;
    int bursts = 1;           ///< 64 B bursts within the row (1..16)
    bool write = false;
    /**
     * Invoked once the completion cycle of the last data burst is
     * known. NOTE: the controller commits command schedules up to a
     * bounded horizon ahead of simulated time, so the callback may run
     * *before* the reported cycle is reached; the Cycle argument is
     * authoritative and continuations must be scheduled at it.
     */
    std::function<void(Cycle)> onComplete;
};

/** One PIM GEMV kernel (a batch of dot-products on this channel). */
struct PimJob
{
    int rowTiles = 1;         ///< total matrix-operand bank-rows
    int banksUsed = 32;       ///< banks participating per round
    int gwrites = 1;          ///< operand-vector chunks to stage
    int resultBursts = 1;     ///< 64 B result bursts returned to host
    bool composite = true;    ///< PIM_GEMV vs PIM_DOTPRODUCT stream
    bool header = true;       ///< PIM_HEADER announced (refresh-safe)
    /**
     * Invoked once the kernel's completion cycle (results returned to
     * the host) is known; same synchronous contract as MemJob.
     */
    std::function<void(Cycle)> onComplete;
};

struct ControllerConfig
{
    bool dualRowBuffers = true;  ///< NeuPIMs banks vs baseline banks
    /**
     * Blocked mode: serialize MEM and PIM phases (baseline PIM).
     * Defaults to the complement of dualRowBuffers via make().
     */
    bool blockedMode = false;
    Cycle horizon = 256;         ///< reservation lookahead bound
    /**
     * In-flight row jobs the controller issues out of (bank overlap).
     * A bank's row cycle is ~4x the data-bus occupancy of one full
     * row, so 8 in-flight banks keep the data bus saturated on
     * streaming reads.
     */
    int memIssueWindow = 8;

    /** Arbitration policy between MEM and PIM command classes. */
    MemSchedConfig sched;

    static ControllerConfig
    make(bool dual_row_buffers)
    {
        ControllerConfig c;
        c.dualRowBuffers = dual_row_buffers;
        c.blockedMode = !dual_row_buffers;
        return c;
    }
};

/**
 * The controller wakes through one event callback (wake()): one
 * arbitration pass, then the job completions that pass produced, in
 * production order, then the horizon resume. Completions never run
 * inside the pass, so a follow-up job a callback enqueues waits for
 * the next pass instead of joining the current one.
 */
class MemoryController
{
  public:
    MemoryController(EventQueue &eq, const TimingParams &timing,
                     const Organization &org, ControllerConfig cfg);

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    void enqueueMem(MemJob job);
    void enqueuePim(PimJob job);

    Channel &channel() { return channel_; }
    const Channel &channel() const { return channel_; }
    const ControllerConfig &config() const { return cfg_; }

    /** True when no job is queued or in flight. */
    bool idle() const;

    /** Queued + in-flight counts (for tests and back-pressure). */
    std::size_t pendingMemJobs() const;
    std::size_t pendingPimJobs() const;

    // --- statistics -----------------------------------------------------
    Scalar &pimBankBusyCycles() { return pimBankBusyCycles_; }
    const Scalar &pimBankBusyCycles() const { return pimBankBusyCycles_; }
    Distribution &memQueueDelay() { return memQueueDelay_; }
    std::uint64_t completedMemJobs() const { return completedMemJobs_; }
    std::uint64_t completedPimJobs() const { return completedPimJobs_; }

    /** The active arbitration policy and its scheduling statistics. */
    const MemSchedPolicy &memSched() const { return *sched_; }
    const MemSchedStats &memSchedStats() const { return sched_->stats(); }

    // --- host work counters (not simulated state) ----------------------
    /** wake() calls: kicks plus horizon resumes. */
    std::uint64_t wakeups() const { return wakeups_; }
    /** Full candidate scans; a resume that reuses its stop pass's
     * candidates does not scan. */
    std::uint64_t candidateScans() const { return candidateScans_; }

    /** Per-bank MEM-side data-bus busy cycles (64 B beats served). */
    const std::vector<Cycle> &
    memBankBusyCycles() const
    {
        return memBankBusyCycles_;
    }

  private:
    /** In-flight state machine for one MemJob. */
    struct MemExec
    {
        MemJob job;
        enum class Phase { PreOrAct, Bursts, Done } phase = Phase::PreOrAct;
        int burstsDone = 0;
        Cycle lastBurstEnd = 0;
        Cycle enqueued = 0;
        /** Issue-window admission order: candidate selection breaks
         * cycle ties oldest-first, so completion may swap-and-pop the
         * vector without perturbing the schedule. */
        std::uint64_t seq = 0;
        /** Row-buffer outcome recorded (first stepMem only). */
        bool classified = false;
        /**
         * Bank-local earliest cycle of the next sub-command: the
         * candidate is max(now, caNextFree, local). Kept current by
         * updateLocal() (see DESIGN.md §3 for when it is recomputed).
         */
        Cycle local = 0;
    };

    /** In-flight state machine for one PimJob. */
    struct PimExec
    {
        PimJob job;
        enum class Phase
        {
            Gwrite,
            Header,
            Group,       ///< activation wave of the current round
            DotProduct,  ///< fine-grained per-bank compute commands
            RoundResult, ///< fine-grained per-round result readback
            FinalResult, ///< composite kernel-end result readback
            Precharge,
            Done,
        } phase = Phase::Gwrite;

        int gwritesDone = 0;
        Cycle gwriteReady = 0;      ///< global vector buffer free time
        int rounds = 0;
        int round = 0;
        int groupsPerRound = 0;
        int group = 0;
        int dotProductsDone = 0;
        int banksThisRound = 0;
        std::vector<Cycle> groupRowReady; ///< per-group tRCD-complete time
        Cycle roundComputeEnd = 0;
        Cycle kernelComputeEnd = 0;
        Cycle resultEnd = 0;
        int rowsIssued = 0;
    };

    void kick();
    /** Event body: run process(), fire its completions, then resume. */
    void wake();
    /**
     * The arbitration loop. Completions are buffered in completions_.
     * @return the horizon resume cycle to schedule, or kCycleMax.
     */
    Cycle process();

    /** Earliest cycle the front-most mem work could issue; kCycleMax
     * if none. Also selects which in-flight job that is. */
    Cycle candidateMem(int &which) const;
    /** Recompute @p m's bank-local earliest cycle from channel state. */
    void updateLocal(MemExec &m) const;
    /** Recompute every in-flight job's bank-local earliest cycle. */
    void updateAllLocals();
    /** Earliest cycle the active PIM kernel's next command could
     * issue; kCycleMax if none. */
    Cycle candidatePim() const;

    /** Issue the next sub-command of in-flight mem job @p which. */
    void stepMem(int which);
    /** Issue the next sub-command of the active PIM kernel. */
    void stepPim();
    /** Advance the active PIM kernel to its next round or epilogue. */
    void advanceRound();

    /** Refill the in-flight mem window from the queue. */
    void refillMemWindow();

    /** Begin executing the next queued PIM kernel, if any. */
    void startNextPimKernel();

    /** Handle refresh that is (or would become) due before @p when. */
    bool maybeRefresh(Cycle when);

    void finishMem(MemExec &exec);
    void finishPim(Cycle done);

    EventQueue &eq_;
    ControllerConfig cfg_;
    Channel channel_;

    RingQueue<MemJob> memQueue_;
    RingQueue<PimJob> pimQueue_;
    std::vector<MemExec> memInFlight_;
    /** Banks with an in-flight mem job (one bit per bank), replacing
     * the former linear scan of memInFlight_ per admission. */
    std::uint64_t banksBusyMask_ = 0;
    std::uint64_t memSeq_ = 0;
    std::unique_ptr<PimExec> pim_;

    bool kickScheduled_ = false;
    Cycle nextKickAt_ = kCycleMax;

    /** Candidates of the pass that last stopped at the horizon, reused
     * by the resume wake; dropped by kick(). */
    struct StopPass
    {
        bool valid = false;
        Cycle cm = kCycleMax;
        Cycle cp = kCycleMax;
        int memIdx = -1;
    };
    StopPass stop_;

    /** A job completion produced by process(), fired by wake(). */
    struct Completion
    {
        std::function<void(Cycle)> fn;
        Cycle at;
    };
    std::vector<Completion> completions_;

    std::unique_ptr<MemSchedPolicy> sched_;
    std::vector<Cycle> memBankBusyCycles_;

    Scalar pimBankBusyCycles_;
    Distribution memQueueDelay_;
    std::uint64_t completedMemJobs_ = 0;
    std::uint64_t completedPimJobs_ = 0;
    std::uint64_t wakeups_ = 0;
    std::uint64_t candidateScans_ = 0;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_CONTROLLER_H_
