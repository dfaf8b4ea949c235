/**
 * @file
 * A growable power-of-two ring buffer (DESIGN.md §4m).
 *
 * SE_core's per-stream FIFO window pushes one element record at the
 * back per run-ahead step and drops committed records from the front.
 * A std::deque does that with a node per few hundred bytes and a map
 * of nodes; this ring keeps one buffer whose size is a power of two,
 * so an offset from the oldest element is one add and one mask. The
 * ring doubles when full (unrolled oldest first), and clear() keeps
 * the buffer for the next use.
 */

#ifndef SF_SIM_RING_HH
#define SF_SIM_RING_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sf {
namespace sim {

template <typename T>
class Ring
{
  public:
    /** Slots allocated by the first push. */
    static constexpr size_t initialCapacity = 64;

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    size_t capacity() const { return _buf.size(); }

    /** Element @p off from the oldest (0); @p off < size(). */
    T &
    operator[](size_t off)
    {
        return _buf[(_head + off) & (_buf.size() - 1)];
    }

    const T &
    operator[](size_t off) const
    {
        return _buf[(_head + off) & (_buf.size() - 1)];
    }

    void
    push_back(const T &v)
    {
        if (_size == _buf.size())
            grow();
        ++_size;
        (*this)[_size - 1] = v;
    }

    /** Drop the @p n oldest elements (all of them, if fewer). */
    void
    popFront(size_t n)
    {
        n = std::min(n, _size);
        if (n == 0)
            return;
        _head = (_head + n) & (_buf.size() - 1);
        _size -= n;
    }

    /** Drop every element; the buffer stays allocated. */
    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> buf(std::max(initialCapacity, 2 * _buf.size()));
        for (size_t i = 0; i < _size; ++i)
            buf[i] = (*this)[i];
        _buf.swap(buf);
        _head = 0;
    }

    std::vector<T> _buf;
    size_t _head = 0;
    size_t _size = 0;
};

} // namespace sim
} // namespace sf

#endif // SF_SIM_RING_HH
