#include "common/prng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace youtiao {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
taskSeed(std::uint64_t root_seed, std::uint64_t task_index)
{
    // Jump the SplitMix64 state ahead by task_index increments, then take
    // one output: element task_index + 1 of the sequence seeded at
    // root_seed, without iterating.
    std::uint64_t state = root_seed + task_index * 0x9E3779B97F4A7C15ull;
    return splitMix64(state);
}

Prng::Prng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

double
Prng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Prng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Prng::gaussian()
{
    if (haveSpareGaussian_) {
        haveSpareGaussian_ = false;
        return spareGaussian_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586476925286766559;
    spareGaussian_ = mag * std::sin(two_pi * u2);
    haveSpareGaussian_ = true;
    return mag * std::cos(two_pi * u2);
}

double
Prng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Prng::bernoulli(double p)
{
    return uniform() < p;
}

Prng
Prng::split()
{
    return Prng(next());
}

UniformIntDraw::UniformIntDraw(std::uint64_t n)
    : n_(n)
{
    if (n == 0) // not requireInternal: no message built per draw
        throw InternalError("uniformInt(n) needs n > 0");
    limit_ = UINT64_MAX - UINT64_MAX % n;
    // With l = ceil(log2 n), m = floor(2^64 (2^l - n) / n) + 1 fits in
    // 64 bits, and floor(v / n) = (t + ((v - t) >> min(l, 1)))
    // >> max(l - 1, 0) with t = floor(m v / 2^64) (Fig. 4.1 with N = 64).
    __extension__ using Wide = unsigned __int128;
    const auto l = static_cast<unsigned>(std::bit_width(n - 1));
    const Wide excess = (Wide{1} << l) - n; // < 2^64 even at l = 64
    multiplier_ = static_cast<std::uint64_t>((excess << 64) / n + 1);
    shift1_ = std::min(l, 1u);
    shift2_ = l - shift1_;
}

} // namespace youtiao
