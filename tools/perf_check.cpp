/**
 * @file
 * perf_check -- fail CI when a tracked phase regresses against a
 * committed baseline perf record.
 *
 *   perf_check --baseline FILE --current FILE
 *              [--max-regression R] [--min-seconds S]
 *
 * Both files are run records (`BENCH_<name>.json`; docs/FILE_FORMATS.md,
 * only schema youtiao-perf-5 accepted). Every baseline phase
 * with at least S seconds of wall time (default 0.01 -- faster phases
 * are timing noise) is compared; the check fails when any current
 * phase exceeds baseline * (1 + R) (default R = 0.25). Baseline phases
 * the current run never recorded are hard failures, each named in a
 * MISSING line: a silently dropped phase would otherwise exempt itself
 * from its own budget forever (a renamed phase must update the
 * baseline in the same PR). Phases that got notably *faster* (below
 * baseline * (1 - R)) are reported as IMPROVEMENT lines so a stale
 * baseline gets refreshed instead of hiding later regressions inside
 * the slack; improvements never fail the check.
 *
 * Exit codes: 0 within budget, 1 regression or missing phase found,
 * 2 usage / bad input.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli_parse.hpp"
#include "common/error.hpp"
#include "common/runledger.hpp"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --baseline FILE --current FILE\n"
                 "          [--max-regression R] [--min-seconds S]\n"
                 "  R: allowed slowdown fraction (default 0.25 = +25%%)\n"
                 "  S: ignore phases faster than S seconds in the "
                 "baseline (default 0.01)\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace youtiao;

    std::string baseline_path;
    std::string current_path;
    double max_regression = 0.25;
    double min_seconds = 0.01;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--baseline")
                baseline_path = next();
            else if (arg == "--current")
                current_path = next();
            else if (arg == "--max-regression")
                max_regression =
                    parsePositiveDoubleArg(next(), "--max-regression");
            else if (arg == "--min-seconds")
                min_seconds =
                    parsePositiveDoubleArg(next(), "--min-seconds");
            else
                usage(argv[0]);
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (baseline_path.empty() || current_path.empty())
        usage(argv[0]);

    try {
        const runledger::PerfRecord baseline =
            runledger::loadPerfRecord(baseline_path);
        const runledger::PerfRecord current =
            runledger::loadPerfRecord(current_path);
        if (baseline.benchmark != current.benchmark)
            std::fprintf(stderr,
                         "warning: comparing different benchmarks "
                         "('%s' vs '%s')\n",
                         baseline.benchmark.c_str(),
                         current.benchmark.c_str());

        // Peak RSS is informational: null (platform could not measure)
        // means "not comparable", never a zero-byte measurement.
        if (baseline.peakRssBytes.has_value() &&
            current.peakRssBytes.has_value()) {
            std::printf("peak RSS %llu -> %llu bytes\n",
                        static_cast<unsigned long long>(
                            *baseline.peakRssBytes),
                        static_cast<unsigned long long>(
                            *current.peakRssBytes));
        } else {
            std::printf("peak RSS not comparable (unmeasured on at "
                        "least one side)\n");
        }

        const runledger::PerfComparison cmp = runledger::comparePerfRecords(
            baseline, current, max_regression, min_seconds);
        for (const std::string &name : cmp.missingPhases)
            std::printf("MISSING    %-40s in baseline but not in "
                        "current run\n",
                        name.c_str());
        std::printf("perf_check %s: %zu phase(s) compared "
                    "(budget +%.0f%%, floor %gs)\n",
                    current.benchmark.c_str(), cmp.comparedPhases,
                    max_regression * 100.0, min_seconds);
        for (const auto &r : cmp.improvements)
            std::printf("IMPROVEMENT %-40s %.4fs -> %.4fs (%.0f%%)\n",
                        r.phase.c_str(), r.baselineSeconds,
                        r.currentSeconds, (1.0 - r.ratio) * 100.0);
        if (!cmp.improvements.empty())
            std::printf("note: %zu phase(s) are notably faster than "
                        "the baseline; consider refreshing "
                        "bench/baselines/ so the budget stays tight\n",
                        cmp.improvements.size());
        if (cmp.regressions.empty() && cmp.missingPhases.empty()) {
            std::printf("perf_check OK\n");
            return 0;
        }
        for (const auto &r : cmp.regressions)
            std::printf("REGRESSION %-40s %.4fs -> %.4fs (%.0f%%)\n",
                        r.phase.c_str(), r.baselineSeconds,
                        r.currentSeconds, (r.ratio - 1.0) * 100.0);
        if (!cmp.missingPhases.empty())
            std::printf("perf_check FAILED: %zu baseline phase(s) "
                        "missing from the current run (update the "
                        "baseline if a phase was renamed)\n",
                        cmp.missingPhases.size());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
