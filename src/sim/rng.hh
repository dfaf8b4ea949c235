/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every randomized decision in the simulator and every synthetic
 * dataset draws from an explicitly seeded Rng so runs are reproducible
 * bit-for-bit across machines and standard-library versions (std::
 * distributions are not portable, so we implement our own draws).
 */

#ifndef SF_SIM_RNG_HH
#define SF_SIM_RNG_HH

#include <cstdint>

namespace sf {

/** xoshiro256** generator with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5f3759df)
    {
        // splitmix64 to spread the seed across the state.
        uint64_t x = seed;
        for (auto &word : _s) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(_s[1] * 5, 7) * 9;
        const uint64_t t = _s[1] << 17;
        _s[2] ^= _s[0];
        _s[3] ^= _s[1];
        _s[1] ^= _s[2];
        _s[0] ^= _s[3];
        _s[2] ^= t;
        _s[3] = rotl(_s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    range(uint64_t bound)
    {
        // Multiply-shift rejection-free mapping (slight modulo bias is
        // irrelevant at our bounds << 2^64).
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. */
    int64_t
    rangeInclusive(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            range(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t _s[4];
};

} // namespace sf

#endif // SF_SIM_RNG_HH
