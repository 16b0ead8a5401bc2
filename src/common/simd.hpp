/**
 * @file
 * Provenance shim: every kernel has one portable body, so the only SIMD
 * "level" is scalar.
 *
 * This header exists only because the benchmark harness
 * (perfbench/harness/main.cpp) prints `simd::levelName(simd::active())`
 * in its provenance line, and the benchmark's files change only
 * together with the benchmark. Nothing in src/, tools/, tests/ or
 * bench/ includes it; the benchmark change that drops the provenance
 * field can delete it.
 */

#ifndef YOUTIAO_COMMON_SIMD_HPP
#define YOUTIAO_COMMON_SIMD_HPP

namespace youtiao::simd {

enum class Level { Scalar };

inline Level
active()
{
    return Level::Scalar;
}

inline const char *
levelName(Level)
{
    return "scalar";
}

} // namespace youtiao::simd

#endif // YOUTIAO_COMMON_SIMD_HPP
