/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue owns global simulated time. Components schedule
 * callbacks at absolute or relative cycles; ties are broken by
 * insertion order so simulations are fully deterministic.
 *
 * The scheduler is a calendar-queue-style near-future ring of
 * `nearWindow` per-cycle FIFO buckets backed by a far-future binary
 * heap, both ordered by (when, seq). Scheduling within the window and
 * popping are O(1) amortized; only events more than `nearWindow`
 * cycles out touch the heap.
 *
 * Callbacks are `InlineEvent`s: move-only callables stored entirely
 * inside the event entry (no heap allocation, ever — a capture that
 * does not fit is a compile error), sized so that a packet-delivery
 * closure (a Packet plus a couple of pointers) fits inline.
 */

#ifndef CAIS_COMMON_EVENT_QUEUE_HH
#define CAIS_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cais
{

/**
 * Small-buffer-only callable for scheduled events.
 *
 * Unlike std::function there is no heap fallback: the callable is
 * constructed directly in `inlineCapacity` bytes of inline storage,
 * so the packet-delivery hot path never allocates. Captures must be
 * nothrow-move-constructible and fit the buffer (both enforced at
 * compile time).
 */
class InlineEvent
{
  public:
    /** Inline storage: sizeof(Packet) plus capture headroom. */
    static constexpr std::size_t inlineCapacity = 128;

    InlineEvent() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent>>>
    InlineEvent(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        emplace(std::forward<F>(f));
    }

    /**
     * Destroy the held callable, if any, and construct @p f directly
     * in the inline buffer. A trivially copyable capture (a Packet
     * plus pointers, the common case) gets no manager: it relocates
     * by memcpy and needs no destructor call.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= inlineCapacity,
                      "event capture exceeds InlineEvent::inlineCapacity; "
                      "shrink the capture (InlineEvent has no heap fallback)");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event captures are not supported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event captures must be nothrow-move-constructible");
        destroy();
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        call = [](void *p) { (*static_cast<Fn *>(p))(); };
        if constexpr (std::is_trivially_copyable_v<Fn>) {
            relocate = nullptr;
        } else {
            // Null @p dst means "destroy only": one manager pointer
            // covers both relocation and destruction.
            relocate = [](void *dst, void *src) noexcept {
                Fn *s = static_cast<Fn *>(src);
                if (dst)
                    ::new (dst) Fn(std::move(*s));
                s->~Fn();
            };
        }
    }

    InlineEvent(InlineEvent &&other) noexcept { moveFrom(other); }

    InlineEvent &
    operator=(InlineEvent &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineEvent(const InlineEvent &) = delete;
    InlineEvent &operator=(const InlineEvent &) = delete;

    ~InlineEvent() { destroy(); }

    /** True when a callable is held. */
    explicit operator bool() const { return call != nullptr; }

    /** Invoke the stored callable. */
    void operator()() { call(buf); }

    /** Destroy the stored callable, leaving the event empty. */
    void reset() noexcept { destroy(); }

  private:
    void
    moveFrom(InlineEvent &other) noexcept
    {
        call = other.call;
        relocate = other.relocate;
        if (call) {
            if (relocate)
                relocate(buf, other.buf);
            else
                std::memcpy(buf, other.buf, inlineCapacity);
            other.call = nullptr;
            other.relocate = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (call) {
            if (relocate)
                relocate(nullptr, buf);
            call = nullptr;
            relocate = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[inlineCapacity];
    void (*call)(void *) = nullptr;
    /** Null for trivially copyable captures (see emplace()). */
    void (*relocate)(void *dst, void *src) noexcept = nullptr;
};

/** A deterministic discrete-event queue with nanosecond resolution. */
class EventQueue
{
  public:
    using Callback = InlineEvent;

    /**
     * Cycles covered by the near-future bucket ring (power of two).
     * Covers link latency (250) plus worst-case serialization with
     * ample slack; longer deltas (merge-table sweeps, launch skew)
     * take the far heap.
     */
    static constexpr Cycle nearWindow = 4096;

    /** An empty queue at cycle 0. */
    EventQueue();

    /**
     * Schedule callable @p f at absolute cycle @p when (>= now),
     * constructing it in place in its slot: the capture is written
     * once and never moved.
     */
    template <typename F>
    void
    schedule(Cycle when, F &&f)
    {
        std::uint32_t idx = claimSlot(when);
        slotAt(idx).cb.emplace(std::forward<F>(f));
        enqueue(idx, when);
    }

    /** Schedule @p f @p delta cycles after the current time. */
    template <typename F>
    void
    scheduleAfter(Cycle delta, F &&f)
    {
        schedule(curTick + delta, std::forward<F>(f));
    }

    /** Pop and run the earliest event. @return false if queue empty. */
    bool runOne();

    /**
     * Run events until the queue drains or simulated time would
     * exceed @p limit. Events scheduled exactly at @p limit run;
     * simulated time then advances to @p limit even when later
     * events remain pending.
     * @return the number of events executed.
     */
    std::uint64_t runUntil(Cycle limit);

    /**
     * Run events until the queue drains.
     * @param max_events safety valve against runaway simulations.
     * @return the number of events executed.
     */
    std::uint64_t runAll(std::uint64_t max_events = ~0ull);

    /** Current simulated time in cycles. */
    Cycle now() const { return curTick; }

    /** True when no events remain. */
    bool empty() const { return nearCount == 0 && heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return nearCount + heap.size(); }

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Install a non-perturbing periodic observer: as simulated time
     * advances past each multiple of @p period, @p fn is invoked with
     * that sample cycle *outside* the event stream — the call is not
     * an event, does not count toward executed(), and fires before
     * the events of the cycle it lands on, so the observed state is
     * exactly the state of the open interval ending at the sample
     * point. The observer must not schedule events or mutate
     * simulation state (it exists for trace/metric sampling; see
     * DESIGN.md §6d). A @p period of 0 removes the observer. Only one
     * observer is supported; installing replaces the previous one.
     */
    void setPeriodicObserver(Cycle period,
                             std::function<void(Cycle)> fn);

    /**
     * Reset time to zero and discard all pending events. The
     * insertion-order tie-break counter and the executed-event count
     * are also reset, so a reused queue reproduces identical
     * tie-breaks (and therefore identical simulations). Must not be
     * called from inside a running event (the event's own slot would
     * be destroyed under it).
     */
    void reset();

  private:
    /**
     * One pending event. Slots live in chunked arrays with stable
     * addresses, so a callback runs *in place* — no move out of the
     * queue on the pop path — and freed slots recycle LIFO through a
     * freelist, keeping the hot set small. `next` threads the slot
     * into its bucket's FIFO (or the freelist when unused).
     */
    struct Slot
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t next;
        Callback cb;
    };

    /** Heap element: ordering key plus the owning slot's index. */
    struct HeapKey
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    struct Later
    {
        bool
        operator()(const HeapKey &a, const HeapKey &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Intrusive per-bucket FIFO of slot indices. */
    struct Fifo
    {
        std::uint32_t head = nilIdx;
        std::uint32_t tail = nilIdx;
    };

    static constexpr std::uint32_t nilIdx = ~0u;
    static constexpr std::size_t chunkShift = 8; ///< 256 slots per chunk
    static constexpr std::size_t chunkSlots = std::size_t{1} << chunkShift;

    static constexpr Cycle bucketMask = nearWindow - 1;
    static constexpr std::size_t bitmapWords = nearWindow / 64;

    Slot &
    slotAt(std::uint32_t idx)
    {
        return chunks[idx >> chunkShift][idx & (chunkSlots - 1)];
    }

    const Slot &
    slotAt(std::uint32_t idx) const
    {
        return chunks[idx >> chunkShift][idx & (chunkSlots - 1)];
    }

    /** Take a slot off the freelist, growing a chunk if dry. */
    std::uint32_t allocSlot();

    /** Check @p when is not in the past; return a free slot. */
    std::uint32_t claimSlot(Cycle when);

    /** Stamp slot @p idx with (@p when, next seq) and link it into
     *  its bucket or the far heap. */
    void enqueue(std::uint32_t idx, Cycle when);

    /** Return an emptied slot to the freelist (LIFO for locality). */
    void
    releaseSlot(std::uint32_t idx)
    {
        slotAt(idx).next = freeHead;
        freeHead = idx;
    }

    void markOccupied(std::size_t idx);
    void clearOccupied(std::size_t idx);

    /**
     * Index of the first occupied bucket at or after the bucket of
     * @p from, in ring order. Requires nearCount > 0.
     */
    std::size_t nextOccupied(Cycle from) const;

    /** Earliest pending cycle, or ~0ull when empty. */
    Cycle nextWhen() const;

    /** Detach and return the earliest (when, seq) slot's index. */
    std::uint32_t popNext();

    // Slot arena: chunked so addresses stay stable while callbacks
    // execute (an in-flight callback may grow the arena).
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t freeHead = nilIdx;

    // Near-future ring: bucket b holds the single in-window cycle
    // congruent to b (mod nearWindow); entries append in seq order.
    std::vector<Fifo> buckets;
    std::uint64_t occupied[bitmapWords] = {};
    std::size_t nearCount = 0;

    // Far-future events (payloads stay in the arena).
    std::priority_queue<HeapKey, std::vector<HeapKey>, Later> heap;

    Cycle curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;

    // Periodic observer (trace sampling). nextObsAt stays at ~0ull
    // when disabled so the hot path pays a single always-false
    // comparison.
    static constexpr Cycle obsDisabled = ~0ull;
    Cycle obsPeriod = 0;
    Cycle nextObsAt = obsDisabled;
    std::function<void(Cycle)> observer;

    /** Fire the observer for every sample point in (curTick, when]. */
    void runObserver(Cycle when);
};

} // namespace cais

#endif // CAIS_COMMON_EVENT_QUEUE_HH
