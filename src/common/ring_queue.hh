/**
 * @file
 * Growable FIFO ring buffer for the packet hop path.
 *
 * std::deque allocates and frees a block every few elements as a
 * queue cycles (a libstdc++ block holds only four 104-byte Packets),
 * which put malloc/free on every link and VC hop. A RingQueue keeps
 * one power-of-two array: it doubles when full and never shrinks, so
 * a queue that has reached its working depth never allocates again.
 */

#ifndef CAIS_COMMON_RING_QUEUE_HH
#define CAIS_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace cais
{

/** FIFO queue over a power-of-two circular buffer. */
template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;

    RingQueue(const RingQueue &other)
    {
        grow(other.count);
        for (std::size_t i = 0; i < other.count; ++i)
            push_back(other[i]);
    }

    RingQueue(RingQueue &&other) noexcept
        : buf(std::exchange(other.buf, nullptr)),
          cap(std::exchange(other.cap, 0)),
          head(std::exchange(other.head, 0)),
          count(std::exchange(other.count, 0))
    {}

    RingQueue &
    operator=(RingQueue other) noexcept
    {
        std::swap(buf, other.buf);
        std::swap(cap, other.cap);
        std::swap(head, other.head);
        std::swap(count, other.count);
        return *this;
    }

    ~RingQueue()
    {
        while (count != 0)
            pop_front();
        std::allocator<T>().deallocate(buf, cap);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Element @p i places behind the front (0 = front). */
    T &operator[](std::size_t i) { return buf[(head + i) & (cap - 1)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf[(head + i) & (cap - 1)];
    }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return (*this)[count - 1]; }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (count == cap)
            grow(cap ? 2 * cap : initialCapacity);
        T *slot = &buf[(head + count) & (cap - 1)];
        ::new (static_cast<void *>(slot)) T(std::forward<Args>(args)...);
        ++count;
        return *slot;
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    /** Destroy the front element; the queue must not be empty. */
    void
    pop_front()
    {
        buf[head].~T();
        head = (head + 1) & (cap - 1);
        --count;
    }

  private:
    static constexpr std::size_t initialCapacity = 8;

    /** Move the elements, in order, into a buffer of at least @p n slots
     *  (rounded up to a power of two; never below the size). */
    void
    grow(std::size_t n)
    {
        if (n == 0)
            return;
        std::size_t want = initialCapacity;
        while (want < n)
            want *= 2;
        T *fresh = std::allocator<T>().allocate(want);
        for (std::size_t i = 0; i < count; ++i) {
            T &src = (*this)[i];
            ::new (static_cast<void *>(&fresh[i])) T(std::move(src));
            src.~T();
        }
        std::allocator<T>().deallocate(buf, cap);
        buf = fresh;
        cap = want;
        head = 0;
    }

    T *buf = nullptr;
    std::size_t cap = 0;   ///< slots in buf (0 or a power of two)
    std::size_t head = 0;  ///< index of the front element
    std::size_t count = 0; ///< live elements
};

} // namespace cais

#endif // CAIS_COMMON_RING_QUEUE_HH
