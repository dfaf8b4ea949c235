/**
 * @file
 * Arrival frontier of one floated stream at its SE_L2: the first
 * element index not yet received, plus a bitset of the elements that
 * arrived beyond it (responses from different banks overtake each
 * other). The bitset is anchored at the frontier, so an arrival costs
 * O(1) and the in-order absorb moves through whole runs of received
 * elements per step.
 */

#ifndef SF_FLT_ARRIVAL_WINDOW_HH
#define SF_FLT_ARRIVAL_WINDOW_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>

namespace sf {
namespace flt {

class ArrivalWindow
{
  public:
    /** Start (or restart) with nothing received from @p start on. */
    void
    reset(uint64_t start)
    {
        _next = start;
        _base = start;
        _words.clear();
    }

    /** Every element below this index has arrived. */
    uint64_t next() const { return _next; }

    /** Elements [first, first + count) arrived; duplicates are fine. */
    void
    arrive(uint64_t first, uint16_t count)
    {
        uint64_t end = first + count;
        if (_words.empty() && first <= _next) {
            _next = std::max(_next, end); // in order: nothing to buffer
            return;
        }
        if (_words.empty())
            _base = _next;
        for (uint64_t idx = std::max(first, _next); idx < end; ++idx) {
            uint64_t off = idx - _base;
            if ((off >> 6) >= _words.size())
                _words.resize((off >> 6) + 1, 0);
            _words[off >> 6] |= uint64_t(1) << (off & 63);
        }
        absorb();
    }

    /** Elements received beyond the frontier. */
    uint64_t
    buffered() const
    {
        uint64_t n = 0;
        for (uint64_t w : _words)
            n += static_cast<uint64_t>(std::popcount(w));
        if (!_words.empty()) {
            uint64_t below = (uint64_t(1) << (_next - _base)) - 1;
            n -= static_cast<uint64_t>(std::popcount(_words.front() & below));
        }
        return n;
    }

  private:
    /** Advance the frontier over received runs; drop drained words. */
    void
    absorb()
    {
        while (!_words.empty()) {
            auto bit = static_cast<unsigned>(_next - _base); // < 64
            // Bits shifted in from above read as holes, so a run never
            // extends past this word.
            uint64_t holes = ~(_words.front() >> bit);
            unsigned run = holes ? std::countr_zero(holes) : 64;
            _next += run;
            if (bit + run < 64)
                return;
            _words.pop_front();
            _base += 64;
        }
    }

    uint64_t _next = 0;
    /** Element index of bit 0 of _words.front(). */
    uint64_t _base = 0;
    std::deque<uint64_t> _words;
};

} // namespace flt
} // namespace sf

#endif // SF_FLT_ARRIVAL_WINDOW_HH
