/**
 * @file
 * Crash-safe file replacement: write to a sibling temp file, fsync, then
 * rename over the target. POSIX rename is atomic within a filesystem, so
 * a reader sees either the old complete file or the new complete file --
 * never a torn prefix, even when the writer is killed and rerun. Every
 * artifact writer (BENCH_*.json perf records, trace exports,
 * fault-campaign output, saved designs, binary chips, hop and drift
 * records) goes through this helper; the flight recorder's dump path
 * stays on raw async-signal-safe writes and the run ledger on its
 * single O_APPEND write, which are already safe.
 */

#ifndef YOUTIAO_COMMON_ATOMIC_IO_HPP
#define YOUTIAO_COMMON_ATOMIC_IO_HPP

#include <cstddef>
#include <string>

namespace youtiao::io {

/**
 * Atomically replace @p path with @p size bytes at @p data. The temp
 * file is `<path>.tmp.<pid>` in the same directory (rename cannot cross
 * filesystems) and is unlinked on failure. Throws ConfigError when the
 * temp file cannot be created, written, synced, or renamed.
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size);

inline void
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    atomicWriteFile(path, bytes.data(), bytes.size());
}

/** Non-throwing variant for best-effort writers (perf records, traces)
 *  that log a warning instead of failing the run. */
bool atomicWriteFileNoThrow(const std::string &path,
                            const std::string &bytes) noexcept;

} // namespace youtiao::io

#endif // YOUTIAO_COMMON_ATOMIC_IO_HPP
