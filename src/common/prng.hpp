/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of YOUTIAO (synthetic crosstalk data, random
 * forest bootstrapping, random seed selection in the generative partition,
 * random benchmark circuits) draws from this generator so that experiments
 * are exactly reproducible from a single seed.
 *
 * The implementation is xoshiro256** (Blackman & Vigna) seeded through
 * SplitMix64; both are public-domain algorithms reimplemented here.
 */

#ifndef YOUTIAO_COMMON_PRNG_HPP
#define YOUTIAO_COMMON_PRNG_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace youtiao {

/**
 * One step of the SplitMix64 sequence: advances @p state and returns the
 * mixed output. Public so parallel code can derive per-task streams.
 */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * Seed for parallel task @p task_index under @p root_seed: the
 * (task_index + 1)-th output of the SplitMix64 sequence started at
 * @p root_seed. Tasks seeded this way get decorrelated streams that
 * depend only on the root seed and the task's logical index - never on
 * which thread runs the task - so parallel runs stay bit-identical to
 * serial ones.
 */
std::uint64_t taskSeed(std::uint64_t root_seed, std::uint64_t task_index);

/**
 * Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
 *
 * Not thread-safe; give each thread (or each experiment) its own instance,
 * typically via split().
 */
class Prng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Prng(std::uint64_t seed = 0x59544AFull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. One UniformIntDraw. */
    std::size_t uniformInt(std::size_t n);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle of @p items. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Derive an independent child generator. Used to hand deterministic yet
     * decorrelated streams to sub-components.
     */
    Prng split();

  private:
    std::array<std::uint64_t, 4> state_;
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

/**
 * Uniform integers in [0, n), the stream of Prng::uniformInt(n): raw draws
 * at or above the largest multiple of n are redrawn (no modulo bias), and
 * v % n is taken by a multiply-high reciprocal instead of a hardware
 * division. The reciprocal is Granlund & Montgomery's ("Division by
 * Invariant Integers using Multiplication", PLDI 1994, Fig. 4.1), exact
 * for every 64-bit v. Build one per n: a forest's bootstrap bags reuse
 * one for all their draws.
 */
class UniformIntDraw
{
  public:
    /** Draws in [0, @p n); n must be > 0. */
    explicit UniformIntDraw(std::uint64_t n);

    /** uniformInt(n)'s rejection limit: raw draws >= it are redrawn. */
    std::uint64_t limit() const { return limit_; }

    /** @p v % n, without a division. */
    std::uint64_t
    remainder(std::uint64_t v) const
    {
        __extension__ using Wide = unsigned __int128;
        const auto t1 = static_cast<std::uint64_t>(
            (static_cast<Wide>(multiplier_) * v) >> 64);
        const std::uint64_t q = (t1 + ((v - t1) >> shift1_)) >> shift2_;
        return v - q * n_;
    }

    /** The next uniformInt(n) value of @p prng's stream. */
    std::size_t
    operator()(Prng &prng) const
    {
        std::uint64_t v;
        do {
            v = prng.next();
        } while (v >= limit_);
        return static_cast<std::size_t>(remainder(v));
    }

  private:
    std::uint64_t n_;
    std::uint64_t limit_;
    std::uint64_t multiplier_;
    unsigned shift1_;
    unsigned shift2_;
};

inline std::size_t
Prng::uniformInt(std::size_t n)
{
    return UniformIntDraw(n)(*this);
}

} // namespace youtiao

#endif // YOUTIAO_COMMON_PRNG_HPP
