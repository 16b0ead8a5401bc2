/**
 * @file
 * perf_trend -- longitudinal trend report over a run ledger.
 *
 *   perf_trend [--ledger FILE] [--tool NAME]
 *              [--max-regression R] [--min-seconds S]
 *
 * Where perf_check compares exactly two run records, perf_trend reads
 * a JSONL run ledger (one youtiao-perf-5 record per line, appended by
 * every tool and bench when $YOUTIAO_RUN_LEDGER is set; see
 * docs/FILE_FORMATS.md) and aggregates the runs of each series -- one
 * benchmark on identical input hashes (chip, seed, config), headed by a
 * short hash of them; bench records carry none -- into per-phase
 * trends: the median of the prior runs, the p99 across the
 * whole series, the latest value, and the latest/median ratio. Only
 * runs that exited 0 enter a series: a run cut short by --deadline or
 * a failure recorded truncated times, which would otherwise become
 * priors or the latest value. The report header counts the runs left
 * out. A phase is flagged REGRESSED by perf_check's test -- latest /
 * prior median > 1 + R (default 0.25), with a prior median of at least
 * S seconds (default 0.01) -- once it has two prior observations: the
 * longitudinal drift signal a pairwise baseline check cannot see.
 *
 * --ledger defaults to $YOUTIAO_RUN_LEDGER; --tool restricts the report
 * to one benchmark's runs (the record's `benchmark` name, e.g.
 * youtiao_cli or table2_wiring).
 *
 * Exit codes: 0 no regression, 1 at least one phase regressed,
 * 2 usage / unreadable or malformed ledger.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_parse.hpp"
#include "common/error.hpp"
#include "common/runledger.hpp"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--ledger FILE] [--tool NAME]\n"
                 "          [--max-regression R] [--min-seconds S]\n"
                 "  FILE: JSONL run ledger (default: "
                 "$YOUTIAO_RUN_LEDGER)\n"
                 "  NAME: restrict the report to one benchmark's runs\n"
                 "  R: latest/median ratio above 1+R flags a phase "
                 "(default 0.25)\n"
                 "  S: ignore phases whose prior median is below S "
                 "seconds (default 0.01)\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace youtiao;

    std::string ledger_path;
    std::string tool_filter;
    runledger::TrendOptions options;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--ledger")
                ledger_path = next();
            else if (arg == "--tool")
                tool_filter = next();
            else if (arg == "--max-regression")
                options.maxRegression =
                    parsePositiveDoubleArg(next(), "--max-regression");
            else if (arg == "--min-seconds")
                options.minSeconds =
                    parsePositiveDoubleArg(next(), "--min-seconds");
            else
                usage(argv[0]);
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (ledger_path.empty()) {
        const char *env = std::getenv("YOUTIAO_RUN_LEDGER");
        if (env != nullptr && *env != '\0')
            ledger_path = env;
    }
    if (ledger_path.empty()) {
        std::fprintf(stderr, "error: no ledger (--ledger FILE or "
                             "$YOUTIAO_RUN_LEDGER)\n");
        return 2;
    }

    try {
        std::ifstream in(ledger_path);
        requireConfig(static_cast<bool>(in),
                      "cannot read run ledger '" + ledger_path + "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::vector<runledger::PerfRecord> records =
            runledger::parseLedger(buffer.str());
        if (!tool_filter.empty()) {
            std::erase_if(records,
                          [&](const runledger::PerfRecord &record) {
                              return record.benchmark != tool_filter;
                          });
        }
        std::printf("perf_trend: %zu ledger record%s from %s\n",
                    records.size(), records.size() == 1 ? "" : "s",
                    ledger_path.c_str());
        const std::vector<runledger::BenchmarkTrend> trends =
            runledger::ledgerTrends(records, options);
        std::fputs(runledger::trendReport(trends, options).c_str(),
                   stdout);
        for (const runledger::BenchmarkTrend &trend : trends) {
            if (trend.anyRegression()) {
                std::printf("perf_trend FAILED: regression in at least "
                            "one phase\n");
                return 1;
            }
        }
        std::printf("perf_trend OK\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
