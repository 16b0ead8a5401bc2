/**
 * @file
 * Shared helpers for the reproduction benches: plan construction without
 * the (slow) random-forest fit for large chips, and table formatting.
 */

#ifndef YOUTIAO_BENCH_COMMON_HPP
#define YOUTIAO_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "chip/topology.hpp"
#include "common/atomic_io.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/runledger.hpp"
#include "common/trace.hpp"
#include "core/config.hpp"
#include "core/youtiao.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao::bench {

/**
 * Machine-readable run record for one bench binary. Construct at the
 * top of main() (resets the metrics registry so the record covers only
 * this run); the destructor renders the record once (schema
 * "youtiao-perf-5", see docs/FILE_FORMATS.md: merged phase timers,
 * counters, histograms, argv, wall/CPU time) and
 * writes it to `BENCH_<name>.json` in the current directory, or under
 * `$YOUTIAO_PERF_DIR` when set. When `$YOUTIAO_RUN_LEDGER` is set the
 * same bytes are appended there, so bench history is trend-analyzable
 * with tools/perf_trend. Every subsequent optimization PR is judged
 * against these records.
 *
 * The report also arms the rest of the observability stack: the crash
 * flight recorder (`FLIGHT_bench_<name>.json` on a fatal signal) and,
 * when `$YOUTIAO_TRACE_DIR` is set, the tracer, whose span timeline
 * lands in `TRACE_<name>.json` there.
 */
class PerfReport
{
  public:
    PerfReport(std::string name, int argc, char **argv)
        : name_(std::move(name)), recorder_(name_, argc, argv)
    {
        metrics::Registry::global().reset();
        const char *trace_dir = std::getenv("YOUTIAO_TRACE_DIR");
        if (trace_dir != nullptr && *trace_dir != '\0') {
            tracePath_ =
                std::string(trace_dir) + "/TRACE_" + name_ + ".json";
            trace::Tracer::global().enable();
        }
        flight::install(("bench_" + name_).c_str());
    }

    ~PerfReport()
    {
        if (!tracePath_.empty()) {
            trace::Tracer::global().disable();
            if (trace::Tracer::global().writeJson(tracePath_))
                log::info("trace written", {{"path", tracePath_}});
            else
                log::warn("cannot write trace", {{"path", tracePath_}});
        }
        // One rendering feeds the ledger (inside finish()) and the file,
        // so the two agree byte for byte.
        const std::string &record = recorder_.finish();
        const char *dir = std::getenv("YOUTIAO_PERF_DIR");
        std::string path =
            dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "";
        path += "BENCH_" + name_ + ".json";
        // Atomic write: a bench killed mid-record leaves the previous
        // BENCH_*.json (or none), never a torn one for perf_check.
        if (!io::atomicWriteFileNoThrow(path, record)) {
            log::warn("cannot write perf record", {{"path", path}});
            return;
        }
        log::info("perf record written", {{"path", path}});
        // Keep the human-readable breadcrumb the bench scripts grep for.
        std::fprintf(stderr, "perf record written to %s\n", path.c_str());
    }

    PerfReport(const PerfReport &) = delete;
    PerfReport &operator=(const PerfReport &) = delete;

  private:
    std::string name_;
    std::string tracePath_;
    runledger::Recorder recorder_;
};

/**
 * Fan a per-configuration computation (one chip size, one topology
 * family, one sweep point) across the shared thread pool and return the
 * rows in input order, so tables print identically to a serial run.
 * Honors `YOUTIAO_THREADS` (1 = serial) like every other parallel path.
 */
template <typename Item, typename Fn>
auto
tableRows(const std::vector<Item> &items, Fn &&fn)
{
    return parallelMap(items, std::forward<Fn>(fn));
}

/** Fit-free YOUTIAO design (Sections 4.2-4.4 on measured matrices),
 *  used by the count/cost reproductions where the random-forest stage is
 *  irrelevant. Thin wrapper over YoutiaoDesigner::designFromMeasurements
 *  kept for the benches' call sites. */
inline YoutiaoDesign
designFromMeasurements(const ChipTopology &chip,
                       const ChipCharacterization &data,
                       const YoutiaoConfig &config, double w_phy = 0.6)
{
    return YoutiaoDesigner(config).designFromMeasurements(chip, data,
                                                          w_phy);
}

/** "$413K" / "$1.25M" formatting used by the paper's tables. */
inline std::string
money(double usd)
{
    char buf[32];
    if (usd >= 1e6)
        std::snprintf(buf, sizeof buf, "$%.2fM", usd / 1e6);
    else
        std::snprintf(buf, sizeof buf, "$%.0fK", usd / 1e3);
    return buf;
}

inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace youtiao::bench

#endif // YOUTIAO_BENCH_COMMON_HPP
