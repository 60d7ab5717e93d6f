/**
 * @file
 * Small, fast, seedable pseudo-random number generator.
 *
 * The simulator must be reproducible across platforms and standard library
 * versions, so it uses its own splitmix64/xoshiro-style generator rather
 * than std::mt19937 plus distribution objects (whose outputs are not
 * portable).
 */

#ifndef WO_SIM_RNG_HH
#define WO_SIM_RNG_HH

#include <cstdint>

namespace wo {

/** splitmix64's finalizer: every input bit reaches every output bit. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A deterministic 64-bit PRNG (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state_(seed)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        return mix64(state_ += 0x9e3779b97f4a7c15ull);
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability @p num / @p den. */
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }

    /** Fork an independent stream (e.g. one per network message). */
    Rng
    split()
    {
        return Rng(next());
    }

  private:
    std::uint64_t state_;
};

} // namespace wo

#endif // WO_SIM_RNG_HH
