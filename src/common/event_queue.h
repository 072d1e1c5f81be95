/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Events are callbacks scheduled at an absolute cycle; run() executes
 * them in (cycle, sequence) order so events scheduled at the same
 * cycle execute in scheduling order (deterministic replay). Components
 * never tick every cycle — they schedule their next interesting time,
 * which is what keeps GPT3-175B-scale windows simulable.
 *
 * The production EventQueue is a two-level bucketed (calendar) queue:
 *  - level 0 is a wheel of per-cycle buckets covering the next
 *    kL0Span cycles, where nearly every schedule lands in O(1) (DRAM
 *    timing constraints and the controller reservation horizon are
 *    all shorter than tREFI ~ 4k cycles);
 *  - level 1 is a wheel of coarse buckets, each spanning kL0Span
 *    cycles, absorbing completion callbacks committed further ahead
 *    (long GEMM/stream completions); a level-1 bucket cascades into
 *    level 0 when the window advances;
 *  - the rare event beyond both windows waits in an overflow heap
 *    that is swept into the wheels as they advance.
 *
 * A whole per-cycle bucket is dispatched per visit (batched same-cycle
 * dispatch) and bucket storage is pooled — cleared, never deallocated —
 * so steady-state scheduling does not allocate when callbacks fit the
 * small-buffer-optimized EventCallback. DESIGN.md §2 describes the
 * architecture and the ordering argument.
 *
 * HeapEventQueue preserves the original std::function-over-
 * std::priority_queue implementation as the reference for differential
 * tests and the bucketed-vs-heap engine microbenchmark.
 */

#ifndef NEUPIMS_COMMON_EVENT_QUEUE_H_
#define NEUPIMS_COMMON_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace neupims {

/**
 * Move-only callable wrapper with a small-buffer optimization sized
 * for the simulator's callbacks (captures of a component pointer, a
 * couple of cycles/ids and a shared_ptr tracker all fit inline).
 * Larger callables fall back to the heap transparently.
 */
class EventCallback
{
  public:
    /** Inline capture budget; larger callables are heap-allocated. */
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, EventCallback>>>
    EventCallback(F &&f) // NOLINT: implicit by design, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "EventCallback requires a void() callable");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (storage()) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>();
        } else {
            *reinterpret_cast<void **>(storage()) =
                new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>();
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void
    operator()()
    {
        NEUPIMS_ASSERT(ops_ != nullptr, "empty EventCallback invoked");
        ops_->invoke(storage());
    }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src and destroy @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    void *storage() { return buf_; }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_)
            ops_->relocate(storage(), other.storage());
        other.ops_ = nullptr;
    }

    template <typename Fn>
    static const Ops &
    inlineOps()
    {
        static const Ops ops = {
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *dst, void *src) {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) { static_cast<Fn *>(p)->~Fn(); },
        };
        return ops;
    }

    template <typename Fn>
    static const Ops &
    heapOps()
    {
        static const Ops ops = {
            [](void *p) { (**static_cast<Fn **>(p))(); },
            [](void *dst, void *src) {
                std::memcpy(dst, src, sizeof(void *));
            },
            [](void *p) { delete *static_cast<Fn **>(p); },
        };
        return ops;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() : l0_(kL0Span), l0Bits_(kL0Span / 64, 0)
    {
        // Level 1 is allocated on first use: short-lived queues that
        // never schedule past the level-0 window skip its setup cost.
    }

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Schedule @p cb (any void() callable) at absolute cycle @p when.
     * Templated so the callback is constructed directly in its bucket
     * slot instead of moving through a temporary.
     * @pre when >= now(): events cannot be scheduled in the past.
     */
    template <typename F>
    void
    schedule(Cycle when, F &&cb)
    {
        NEUPIMS_ASSERT(when >= now_, "when=", when, " now=", now_);
        ++size_;
        Cycle span = when >> kL0Bits;
        if (span < l0Span_) {
            // Rare: run(limit) parked now_ before a window that had
            // already advanced to the next pending event, and the
            // caller now schedules into the gap. Rewind the windows.
            retreatWindow(span);
        }
        if (span == l0Span_) {
            // Level 0: per-cycle bucket, O(1).
            if (draining_ && when == now_) {
                // Appending to the bucket being drained could move it
                // under the executing callback; park same-cycle
                // events aside — the drain loop folds them back in.
                drainAppend_.emplace_back(seq_++, std::forward<F>(cb));
                ++l0Count_;
                return;
            }
            std::size_t idx = l0Index(when);
            l0_[idx].emplace_back(seq_++, std::forward<F>(cb));
            l0Bits_[idx >> 6] |= 1ULL << (idx & 63);
            ++l0Count_;
        } else if (span - l0Span_ < kL1Buckets) {
            // Level 1: coarse bucket, cascaded when the window gets
            // there. Insertion order within a bucket is sequence
            // order, which the cascade preserves.
            ensureL1();
            std::size_t idx = l1Index(span);
            l1_[idx].emplace_back(when, seq_++, std::forward<F>(cb));
            l1Bits_[idx >> 6] |= 1ULL << (idx & 63);
            ++l1Count_;
        } else {
            far_.push(L1Event{when, seq_++, std::forward<F>(cb)});
        }
    }

    /** Schedule @p cb @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&cb)
    {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /** Whether any event is pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Cycle of the next pending event. @pre !empty() */
    Cycle
    nextEventCycle() const
    {
        NEUPIMS_ASSERT(size_ > 0);
        if (l0Count_ > 0)
            return nextL0Cycle();
        if (l1Count_ > 0) {
            // The next level-1 bucket holds the earliest events, but
            // unsorted: take its minimum cycle.
            std::size_t idx = l1Index(nextL1Span());
            Cycle best = kCycleMax;
            for (const auto &e : l1_[idx])
                best = e.when < best ? e.when : best;
            return best;
        }
        return far_.top().when;
    }

    /**
     * Run until the queue drains or @p limit cycles is exceeded.
     * @return the final simulated cycle.
     */
    Cycle
    run(Cycle limit = kCycleMax)
    {
        while (size_ > 0) {
            if (l0Count_ == 0)
                advanceWindow();
            Cycle when = nextL0Cycle();
            if (when > limit) {
                now_ = std::max(now_, limit);
                return now_;
            }
            NEUPIMS_ASSERT(when >= now_, "time went backwards");
            now_ = when;
            // Batched same-cycle dispatch: drain the whole bucket,
            // including events the callbacks append at this cycle.
            // Same-cycle appends are parked in drainAppend_, so the
            // bucket is stable and callbacks run in place with no
            // per-event move; executed callbacks are destroyed
            // wholesale when the bucket is released.
            std::size_t idx = l0Index(when);
            auto &bucket = l0_[idx];
            std::size_t start = head_; // step() may have consumed some
            draining_ = true;
            while (true) {
                while (head_ < bucket.size())
                    bucket[head_++].cb();
                if (drainAppend_.empty())
                    break;
                for (auto &e : drainAppend_)
                    bucket.push_back(std::move(e));
                drainAppend_.clear();
            }
            draining_ = false;
            // Counters are settled once per bucket; callbacks do not
            // observe size()/executedEvents() mid-drain.
            std::size_t drained = head_ - start;
            size_ -= drained;
            l0Count_ -= drained;
            executed_ += drained;
            releaseBucket(idx);
        }
        return now_;
    }

    /**
     * Run a single event, honoring the same monotonicity and limit
     * semantics as run().
     * @return false if the queue was empty or the next event lies
     *         beyond @p limit (in which case now() advances to the
     *         limit, as run() does).
     */
    bool
    step(Cycle limit = kCycleMax)
    {
        if (size_ == 0)
            return false;
        if (l0Count_ == 0)
            advanceWindow();
        Cycle when = nextL0Cycle();
        if (when > limit) {
            now_ = std::max(now_, limit);
            return false;
        }
        NEUPIMS_ASSERT(when >= now_, "time went backwards");
        now_ = when;
        std::size_t idx = l0Index(when);
        auto &bucket = l0_[idx];
        draining_ = true;
        bucket[head_++].cb();
        draining_ = false;
        for (auto &e : drainAppend_)
            bucket.push_back(std::move(e));
        drainAppend_.clear();
        --size_;
        --l0Count_;
        ++executed_;
        if (head_ == bucket.size())
            releaseBucket(idx);
        return true;
    }

    /** Total events executed (engine statistics). */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    /** Level-0 wheel: one bucket per cycle over kL0Span cycles. */
    static constexpr std::size_t kL0Bits = 12;
    static constexpr std::size_t kL0Span = std::size_t{1} << kL0Bits;
    /** Level-1 wheel: kL1Buckets buckets of kL0Span cycles each. */
    static constexpr std::size_t kL1Bits = 12;
    static constexpr std::size_t kL1Buckets = std::size_t{1} << kL1Bits;

    struct L0Event
    {
        template <typename F>
        L0Event(std::uint64_t s, F &&f) : seq(s), cb(std::forward<F>(f))
        {}

        std::uint64_t seq;
        Callback cb;
    };

    struct L1Event
    {
        template <typename F>
        L1Event(Cycle w, std::uint64_t s, F &&f)
            : when(w), seq(s), cb(std::forward<F>(f))
        {}

        Cycle when;
        std::uint64_t seq;
        mutable Callback cb; ///< moved out of the heap top on sweep

        bool
        operator>(const L1Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::size_t
    l0Index(Cycle when) const
    {
        return static_cast<std::size_t>(when) & (kL0Span - 1);
    }

    std::size_t
    l1Index(Cycle span) const
    {
        return static_cast<std::size_t>(span) & (kL1Buckets - 1);
    }

    /** Earliest occupied level-0 cycle. @pre l0Count_ > 0 */
    Cycle
    nextL0Cycle() const
    {
        // All pending events are >= now_, so start the scan there
        // when now_ is inside the window.
        Cycle base = l0Span_ << kL0Bits;
        Cycle lo = now_ > base ? now_ : base;
        std::size_t start = l0Index(lo);
        std::size_t word = start >> 6;
        std::uint64_t bits =
            l0Bits_[word] & (~std::uint64_t{0} << (start & 63));
        while (true) {
            if (bits != 0) {
                std::size_t idx = (word << 6) +
                                  static_cast<std::size_t>(
                                      __builtin_ctzll(bits));
                return base + static_cast<Cycle>(idx);
            }
            ++word;
            NEUPIMS_ASSERT(word < l0Bits_.size(),
                           "level-0 bitmap scan ran past the window");
            bits = l0Bits_[word];
        }
    }

    static constexpr std::size_t kNpos = ~std::size_t{0};

    /** First set bit with index in [from, to), or kNpos. */
    static std::size_t
    scanBits(const std::vector<std::uint64_t> &bits, std::size_t from,
             std::size_t to)
    {
        if (from >= to)
            return kNpos;
        std::size_t word = from >> 6;
        std::size_t last_word = (to - 1) >> 6;
        std::uint64_t w = bits[word] & (~std::uint64_t{0} << (from & 63));
        while (true) {
            if (w != 0) {
                std::size_t idx =
                    (word << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(w));
                return idx < to ? idx : kNpos;
            }
            if (++word > last_word)
                return kNpos;
            w = bits[word];
        }
    }

    /** Earliest occupied level-1 span. @pre l1Count_ > 0 */
    Cycle
    nextL1Span() const
    {
        // Level-1 holds spans l0Span_+1 .. l0Span_+kL1Buckets-1; in
        // index space that is a circular range starting at `start`.
        std::size_t start = l1Index(l0Span_ + 1);
        std::size_t idx = scanBits(l1Bits_, start, kL1Buckets);
        if (idx == kNpos)
            idx = scanBits(l1Bits_, 0, start);
        NEUPIMS_ASSERT(idx != kNpos, "empty level-1 wheel");
        std::size_t off = idx >= start ? idx - start
                                       : kL1Buckets - start + idx;
        return l0Span_ + 1 + static_cast<Cycle>(off);
    }

    /**
     * The level-0 window drained: advance it to the next occupied
     * level-1 bucket (cascading that bucket into level 0) or rebase
     * both windows from the overflow heap. Newly opened level-1 spans
     * are swept from the overflow heap immediately so a cycle can
     * never hold events in two structures at once — that is what
     * keeps (cycle, sequence) order global.
     */
    void
    advanceWindow()
    {
        NEUPIMS_ASSERT(l0Count_ == 0);
        if (l1Count_ > 0) {
            Cycle span = nextL1Span();
            std::size_t idx = l1Index(span);
            l0Span_ = span;
            for (auto &e : l1_[idx]) {
                std::size_t b = l0Index(e.when);
                l0_[b].push_back(
                    L0Event{e.seq, std::move(e.cb)});
                l0Bits_[b >> 6] |= 1ULL << (b & 63);
                ++l0Count_;
                --l1Count_;
            }
            l1_[idx].clear();
            l1Bits_[idx >> 6] &= ~(1ULL << (idx & 63));
        } else {
            NEUPIMS_ASSERT(!far_.empty());
            l0Span_ = far_.top().when >> kL0Bits;
        }
        // Newly opened spans may already have overflow events; pull
        // them in before any direct schedule can target those spans.
        sweepOverflow();
        NEUPIMS_ASSERT(l0Count_ > 0, "window advance produced no work");
    }

    /**
     * Rewind both windows so @p target_span becomes the level-0 span.
     * Every wheel resident is demoted to the overflow heap (which
     * orders by (cycle, sequence) regardless) and whatever fits the
     * rewound windows is swept straight back. Only reachable through
     * the run(limit)-then-schedule-into-the-gap pattern, never on the
     * simulator hot path.
     */
    void
    retreatWindow(Cycle target_span)
    {
        for (std::size_t idx = 0; l0Count_ > 0 && idx < kL0Span; ++idx) {
            if (!(l0Bits_[idx >> 6] & (1ULL << (idx & 63))))
                continue;
            Cycle when = (l0Span_ << kL0Bits) + static_cast<Cycle>(idx);
            for (auto &e : l0_[idx]) {
                far_.push(L1Event{when, e.seq, std::move(e.cb)});
                --l0Count_;
            }
            l0_[idx].clear();
            l0Bits_[idx >> 6] &= ~(1ULL << (idx & 63));
        }
        for (std::size_t idx = 0; l1Count_ > 0 && idx < kL1Buckets;
             ++idx) {
            if (!(l1Bits_[idx >> 6] & (1ULL << (idx & 63))))
                continue;
            for (auto &e : l1_[idx]) {
                far_.push(L1Event{e.when, e.seq, std::move(e.cb)});
                --l1Count_;
            }
            l1_[idx].clear();
            l1Bits_[idx >> 6] &= ~(1ULL << (idx & 63));
        }
        head_ = 0;
        l0Span_ = target_span;
        sweepOverflow();
    }

    /** Move overflow events that now fit the windows into them. */
    void
    sweepOverflow()
    {
        while (!far_.empty()) {
            Cycle span = far_.top().when >> kL0Bits;
            if (span != l0Span_ && span - l0Span_ >= kL1Buckets)
                return;
            const L1Event &top = far_.top();
            if (span == l0Span_) {
                std::size_t b = l0Index(top.when);
                l0_[b].push_back(L0Event{top.seq, std::move(top.cb)});
                l0Bits_[b >> 6] |= 1ULL << (b & 63);
                ++l0Count_;
            } else {
                ensureL1();
                std::size_t idx = l1Index(span);
                l1_[idx].push_back(
                    L1Event{top.when, top.seq, std::move(top.cb)});
                l1Bits_[idx >> 6] |= 1ULL << (idx & 63);
                ++l1Count_;
            }
            far_.pop();
        }
    }

    /** Allocate the level-1 wheel on first use. */
    void
    ensureL1()
    {
        if (l1_.empty()) {
            l1_.resize(kL1Buckets);
            l1Bits_.assign(kL1Buckets / 64, 0);
        }
    }

    /** Recycle a fully drained bucket (keep its storage pooled). */
    void
    releaseBucket(std::size_t idx)
    {
        l0_[idx].clear();
        head_ = 0;
        l0Bits_[idx >> 6] &= ~(1ULL << (idx & 63));
    }

    std::vector<std::vector<L0Event>> l0_; ///< per-cycle buckets
    std::vector<std::uint64_t> l0Bits_;    ///< level-0 occupancy
    std::vector<std::vector<L1Event>> l1_; ///< per-span buckets
    std::vector<std::uint64_t> l1Bits_;    ///< level-1 occupancy
    std::priority_queue<L1Event, std::vector<L1Event>, std::greater<>>
        far_; ///< events beyond both windows

    Cycle l0Span_ = 0;      ///< level-0 window covers this span
    std::size_t head_ = 0;  ///< drain cursor within the front bucket
    std::size_t l0Count_ = 0;
    std::size_t l1Count_ = 0;
    std::size_t size_ = 0;
    bool draining_ = false; ///< a bucket is being executed in place
    std::vector<L0Event> drainAppend_; ///< same-cycle mid-drain appends

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

/**
 * Reference implementation: the seed's std::function-over-
 * std::priority_queue queue, byte-for-byte semantics. Kept for
 * differential tests and to quantify the calendar queue in the
 * engine microbenchmarks.
 */
class HeapEventQueue
{
  public:
    using Callback = std::function<void()>;

    HeapEventQueue() = default;

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback cb)
    {
        NEUPIMS_ASSERT(when >= now_, "when=", when, " now=", now_);
        heap_.push(Entry{when, seq_++, std::move(cb)});
    }

    void
    scheduleIn(Cycle delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    Cycle
    nextEventCycle() const
    {
        NEUPIMS_ASSERT(!heap_.empty());
        return heap_.top().when;
    }

    Cycle
    run(Cycle limit = kCycleMax)
    {
        while (!heap_.empty()) {
            // Copy out the entry: callbacks may schedule new events.
            Entry e = heap_.top();
            if (e.when > limit) {
                now_ = std::max(now_, limit);
                return now_;
            }
            heap_.pop();
            NEUPIMS_ASSERT(e.when >= now_, "time went backwards");
            now_ = e.when;
            e.cb();
            ++executed_;
        }
        return now_;
    }

    bool
    step(Cycle limit = kCycleMax)
    {
        if (heap_.empty())
            return false;
        Entry e = heap_.top();
        if (e.when > limit) {
            now_ = std::max(now_, limit);
            return false;
        }
        heap_.pop();
        NEUPIMS_ASSERT(e.when >= now_, "time went backwards");
        now_ = e.when;
        e.cb();
        ++executed_;
        return true;
    }

    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace neupims

#endif // NEUPIMS_COMMON_EVENT_QUEUE_H_
