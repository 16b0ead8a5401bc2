/**
 * @file
 * youtiao_perfbench -- the end-to-end wiring-design benchmark.
 *
 *   youtiao_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--work-dir DIR] [--expected FILE] [--git-sha SHA]
 *                     [--threads N]
 *
 * Set-up makes the workload's inputs from the seed (chips, seeded
 * characterization, chip files) and warms up on two small chips; it runs
 * five times and setup_s is the median. The benchmark then repeats
 * passes over the workload's chips for S seconds, after one discarded
 * pass (at least three measured passes; exactly one, and no discarded
 * pass, when S is 0). Every pass runs every chip through the pipeline in
 * pipeline.cpp and checks its outputs.
 *
 * --trace 0 prints the end-to-end metrics of untraced passes (e2e_s and
 * cpu_s are per-pass means). --trace 1
 * alternates untraced and traced passes, writes the last traced pass's
 * spans to the work directory, and prints per-layer metrics of the
 * median traced pass: layer self times plus bench.unattributed_s add up
 * to bench.traced_e2e_s.
 *
 * The last line of stdout is one JSON object: correct, attempted (chips
 * run), failed (chips whose design failed, whose routing left a failed
 * connection or DRC violation, or that failed any check) and metrics.
 * Exit status 0 after a completed run (even an incorrect one), 2 on bad
 * arguments.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/runledger.hpp"
#include "common/simd.hpp"
#include "common/trace.hpp"
#include "pipeline.hpp"

namespace {

using namespace perfbench;
using youtiao::TopologyFamily;

struct Workload
{
    std::vector<JobSpec> jobs;
    /** Global pool lanes (YOUTIAO_THREADS) the workload runs with. */
    std::size_t threads = 1;
};

/** The benchmark's workloads; see perfbench/README.md for why each. */
std::map<std::string, Workload>
workloads()
{
    const JobSpec square{"square", JobKind::FlatRouted,
                         TopologyFamily::Square};
    return {
        {"flat_route", {{square}, 1}},
        {"fit_design",
         {{{"grid8x8", JobKind::FlatDesign, TopologyFamily::SquareGrid, 8,
            8}},
          1}},
        {"hier_scale",
         {{{"grid24x24", JobKind::Hierarchical, TopologyFamily::SquareGrid,
            24, 24, 64}},
          2}},
        // Fast end-to-end check of both pipelines: a 2x2-tile chip.
        {"smoke",
         {{square,
           {"grid8x8-tiled", JobKind::Hierarchical,
            TopologyFamily::SquareGrid, 8, 8, 16}},
          2}},
    };
}

/** Chips set-up warms both pipelines up on (not measured). */
const JobSpec kWarmup[] = {
    {"warmup", JobKind::FlatRouted, TopologyFamily::SquareGrid, 2, 2},
    {"warmup-tiled", JobKind::Hierarchical, TopologyFamily::SquareGrid, 8,
     8, 16}};

constexpr int kSetupRepeats = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::string expectedPath;
    std::string gitSha = "unknown";
    std::size_t threads = 0;
};

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--expected FILE] "
                 "[--git-sha SHA] [--threads N]\n",
                 why.c_str(), argv0);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], "missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (arg == "--work-dir")
                opt.workDir = value;
            else if (arg == "--expected")
                opt.expectedPath = value;
            else if (arg == "--git-sha")
                opt.gitSha = value;
            else if (arg == "--threads")
                opt.threads = std::stoul(value);
            else
                usage(argv[0], "unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage(argv[0], "bad value for " + arg + ": " + value);
        }
    }
    if (!(opt.seconds >= 0.0))
        usage(argv[0], "--seconds must be >= 0");
    return opt;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One pass over the workload's chips. */
struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<JobResult> jobs;
    std::map<std::string, std::uint64_t> counters;
};

Pass
runPass(const std::vector<JobInput> &inputs, bool traced)
{
    Pass pass;
    pass.traced = traced;
    youtiao::metrics::Registry::global().reset();
    for (const JobInput &input : inputs) {
        pass.jobs.push_back(runJob(input));
        pass.wallS += pass.jobs.back().wallS;
        pass.cpuS += pass.jobs.back().cpuS;
    }
    pass.counters = youtiao::metrics::Registry::global().counters();
    return pass;
}

/** Everything a pass must reproduce exactly, as one comparable string. */
std::string
fingerprint(const Pass &pass)
{
    std::ostringstream out;
    out.precision(17);
    for (const JobResult &r : pass.jobs) {
        out << youtiao::runledger::fnv1aHex(r.artifact) << ' ' << r.costUsd
            << ' ' << r.interfaces << ' ' << r.wireLengthMm << ' '
            << r.crossovers << ' ' << r.seamCrosstalkMax;
        for (double f : r.perGateFidelity)
            out << ' ' << f;
        out << '\n';
    }
    return out.str();
}

std::string
artifactDigest(const Pass &pass)
{
    std::string all;
    for (const JobResult &r : pass.jobs)
        all += r.artifact;
    return youtiao::runledger::fnv1aHex(all);
}

/** Expected digest for (workload, seed), or "" when none is committed. */
std::string
expectedDigest(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    if (path.empty())
        return "";
    std::ifstream in(path);
    if (!in)
        throw youtiao::ConfigError("cannot read " + path);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const youtiao::json::Value root =
        youtiao::json::parse(text, "expected digests");
    const youtiao::json::Value *table = root.fieldIf(workload);
    const youtiao::json::Value *digest =
        table != nullptr ? table->fieldIf(std::to_string(seed)) : nullptr;
    return digest != nullptr ? digest->asString("digest") : "";
}

/** Prints each metric as a table row and collects the JSON members. */
class MetricWriter
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "error: metric %s is not finite\n",
                         name.c_str());
            finite_ = false;
            value = 0.0; // keep the result line valid JSON
        }
        std::printf("  %-34s %-18s %s\n", name.c_str(),
                    youtiao::json::formatDouble(value).c_str(), unit);
        if (!json_.empty())
            json_ += ", ";
        json_ += "\"" + name + "\": {\"value\": " +
                 youtiao::json::formatDouble(value) + ", \"unit\": \"" +
                 unit + "\"}";
    }

    const std::string &json() const { return json_; }
    bool finite() const { return finite_; }

  private:
    std::string json_;
    bool finite_ = true;
};

/** Per-layer metrics of the median traced pass. */
void
writeLayerMetrics(const std::vector<Pass> &passes, MetricWriter &out)
{
    std::vector<const Pass *> traced;
    std::vector<double> untraced_walls;
    for (const Pass &p : passes) {
        if (p.traced)
            traced.push_back(&p);
        else
            untraced_walls.push_back(p.wallS);
    }
    std::sort(traced.begin(), traced.end(),
              [](const Pass *a, const Pass *b) { return a->wallS < b->wallS; });
    const Pass &pass = *traced[(traced.size() - 1) / 2];

    LayerSeconds layers;
    double route_cpu = 0.0;
    double wire = 0.0, crossovers = 0.0, seam = 0.0;
    std::size_t nets = 0, fallbacks = 0, tiles = 0, retunes = 0,
                seam_violations = 0, arena = 0, bytes = 0;
    for (const JobResult &r : pass.jobs) {
        for (const auto &[name, s] : r.layers)
            layers[name] += s;
        route_cpu += r.hierRouteCpuS;
        wire += r.wireLengthMm;
        crossovers += r.crossovers;
        seam = std::max(seam, r.seamCrosstalkMax);
        nets += r.nets;
        fallbacks += r.fallbackNets;
        tiles += r.tiles;
        retunes += r.seamRetunes;
        seam_violations += r.seamViolations;
        arena = std::max(arena, r.peakArenaBytes);
        bytes += r.artifact.size();
    }
    static const char *const kLayers[] = {
        "chip.load_s",         "noise.fit_s",    "core.design_s",
        "routing.build_nets_s", "routing.route_s", "routing.drc_s",
        "hier.design_s",       "hier.route_s",   "circuit.transpile_s",
        "sim.fidelity_s",      "io.save_s",      "io.reload_s"};
    double attributed = 0.0;
    for (const char *name : kLayers) {
        const auto it = layers.find(name);
        const double s = it != layers.end() ? it->second : 0.0;
        attributed += s;
        out.add(name, s, "s");
    }
    out.add("bench.unattributed_s", pass.wallS - attributed, "s");
    out.add("bench.traced_e2e_s", pass.wallS, "s");
    std::vector<double> traced_walls;
    for (const Pass *p : traced)
        traced_walls.push_back(p->wallS);
    out.add("bench.trace_overhead_s",
            mean(traced_walls) - mean(untraced_walls), "s");

    auto counter = [&pass](const char *name) {
        const auto it = pass.counters.find(name);
        return it != pass.counters.end() ? static_cast<double>(it->second)
                                         : 0.0;
    };
    const double expanded = counter("astar.cells_expanded");
    const double path_cells = counter("astar.path_cells");
    const double route_wall =
        layers.count("hier.route_s") ? layers["hier.route_s"] : 0.0;
    out.add("noise.trees_fitted", counter("noise.trees_fitted"), "count");
    out.add("freq.sparse_entries", counter("freq.sparse_entries"), "count");
    out.add("routing.nets", static_cast<double>(nets), "count");
    out.add("routing.retry_passes", counter("routing.retry_passes"),
            "count");
    out.add("routing.fallback_nets", static_cast<double>(fallbacks),
            "count");
    out.add("routing.wire_length_mm", wire, "mm");
    out.add("routing.crossovers", crossovers, "count");
    out.add("astar.cells_expanded", expanded, "count");
    out.add("astar.path_cells", path_cells, "count");
    out.add("astar.path_cells_per_expanded",
            expanded > 0.0 ? path_cells / expanded : 0.0, "ratio");
    out.add("hier.route_cpu_s", route_cpu, "s");
    out.add("hier.route_parallelism",
            route_wall > 0.0 ? route_cpu / route_wall : 0.0, "ratio");
    out.add("hier.tiles", static_cast<double>(tiles), "count");
    out.add("hier.seam_retunes", static_cast<double>(retunes), "count");
    out.add("hier.seam_crosstalk_max", seam, "ratio");
    out.add("hier.seam_violations", static_cast<double>(seam_violations),
            "count");
    out.add("hier.peak_arena_bytes", static_cast<double>(arena), "bytes");
    out.add("corridor.segments_expanded",
            counter("corridor.segments_expanded"), "count");
    out.add("io.artifact_bytes", static_cast<double>(bytes), "bytes");
}

int
run(const Options &opt)
{
    const std::map<std::string, Workload> all = workloads();
    const auto found = all.find(opt.workload);
    if (found == all.end()) {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const Workload &workload = found->second;
    const std::size_t threads =
        opt.threads > 0 ? opt.threads : workload.threads;
    setenv("YOUTIAO_THREADS", std::to_string(threads).c_str(), 1);
    youtiao::ThreadPool::setGlobalThreadCount(threads);

    const std::string work_dir = opt.workDir + "/" + opt.workload + "-" +
                                 std::to_string(getpid());
    std::filesystem::create_directories(work_dir);
    struct RemoveOnExit
    {
        std::string dir;
        ~RemoveOnExit()
        {
            std::error_code ignored;
            std::filesystem::remove_all(dir, ignored);
        }
    } cleanup{work_dir};

    // Set-up, several times; the last inputs are the ones measured.
    std::vector<JobInput> inputs;
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        inputs.clear();
        for (std::size_t j = 0; j < workload.jobs.size(); ++j)
            inputs.push_back(
                prepareJob(workload.jobs[j], opt.seed, j, work_dir));
        for (const JobSpec &spec : kWarmup)
            (void)runJob(prepareJob(spec, opt.seed, workload.jobs.size(),
                                    work_dir));
        setup_s.push_back(secondsSince(start));
    }

    // One discarded pass lets lazy allocations and caches settle. Then
    // passes run until the next one would overrun the budget (judged by
    // the last one, checks included). A traced run alternates untraced
    // and traced passes so both see the same machine; each traced pass
    // restarts the tracer, so the trace file holds the last one.
    const auto start = std::chrono::steady_clock::now();
    if (opt.seconds > 0.0)
        (void)runPass(inputs, false);
    std::vector<Pass> passes;
    const std::size_t min_passes =
        (opt.seconds > 0.0 ? 3 : 1) * (opt.trace ? 2 : 1);
    youtiao::trace::Tracer &tracer = youtiao::trace::Tracer::global();
    double last = 0.0;
    for (std::size_t n = 0;
         n < min_passes || secondsSince(start) + last <= opt.seconds; ++n) {
        const auto pass_start = std::chrono::steady_clock::now();
        const bool traced = opt.trace && n % 2 == 1;
        if (traced)
            tracer.enable();
        passes.push_back(runPass(inputs, traced));
        if (traced)
            tracer.disable();
        last = secondsSince(pass_start);
    }
    std::string trace_path;
    if (opt.trace) {
        trace_path = opt.workDir + "/TRACE_" + opt.workload + "_seed" +
                     std::to_string(opt.seed) + ".json";
        if (!tracer.writeJson(trace_path))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         trace_path.c_str());
    }

    // Failure accounting: one op per chip per pass.
    std::size_t attempted = 0, failed = 0;
    bool correct = true;
    const std::string reference = fingerprint(passes.front());
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const Pass &pass = passes[p];
        if (fingerprint(pass) != reference) {
            std::fprintf(stderr, "error: pass %zu output differs from "
                                 "pass 0\n", p);
            correct = false;
        }
        for (std::size_t j = 0; j < pass.jobs.size(); ++j) {
            ++attempted;
            const Problems &problems = pass.jobs[j].problems;
            if (problems.empty())
                continue;
            ++failed;
            for (const std::string &what : problems)
                std::fprintf(stderr, "check failed: pass %zu %s: %s\n", p,
                             inputs[j].spec.name.c_str(), what.c_str());
        }
    }
    const std::string digest = artifactDigest(passes.front());
    const std::string expected =
        expectedDigest(opt.expectedPath, opt.workload, opt.seed);
    if (!expected.empty() && expected != digest) {
        std::fprintf(stderr, "error: design digest %s, expected %s\n",
                     digest.c_str(), expected.c_str());
        correct = false;
    }
    correct = correct && failed == 0;

    std::printf(
        "provenance {\"workload\": \"%s\", \"seed\": %llu, "
        "\"git_sha\": \"%s\", \"build_type\": \"%s\", \"simd\": \"%s\", "
        "\"youtiao_threads\": %zu, \"nproc\": %u, \"cpu_model\": \"%s\", "
        "\"passes\": %zu, \"design_digest\": \"%s\", "
        "\"digest_check\": \"%s\"%s}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        youtiao::json::escape(opt.gitSha).c_str(), PERFBENCH_BUILD_TYPE,
        youtiao::simd::levelName(youtiao::simd::active()), threads,
        std::thread::hardware_concurrency(),
        youtiao::json::escape(cpuModel()).c_str(), passes.size(),
        digest.c_str(),
        expected.empty() ? "none committed"
                         : (expected == digest ? "match" : "MISMATCH"),
        trace_path.empty()
            ? ""
            : (", \"trace\": \"" + youtiao::json::escape(trace_path) + "\"")
                  .c_str());

    std::printf("setup walls (s):");
    for (double s : setup_s)
        std::printf(" %.3f", s);
    std::printf("\npass walls (s):");
    for (const Pass &p : passes)
        std::printf(" %.3f%s", p.wallS, p.traced ? "t" : "");
    std::printf("\n");
    for (std::size_t j = 0; j < inputs.size(); ++j) {
        const JobResult &r = passes.front().jobs[j];
        std::printf("chip %-14s wall %.3f s  cost %.0f USD  interfaces %.0f"
                    "  wire %.2f mm  crossovers %.0f  fidelity/gate",
                    inputs[j].spec.name.c_str(), r.wallS, r.costUsd,
                    r.interfaces, r.wireLengthMm, r.crossovers);
        for (double f : r.perGateFidelity)
            std::printf(" %.6f", f);
        std::printf("\n");
    }

    MetricWriter metrics;
    if (opt.trace) {
        writeLayerMetrics(passes, metrics);
    } else {
        std::vector<double> walls, cpus;
        for (const Pass &p : passes) {
            walls.push_back(p.wallS);
            cpus.push_back(p.cpuS);
        }
        const Pass &first = passes.front();
        double cost = 0.0, interfaces = 0.0, log_fidelity = 0.0;
        std::size_t fidelities = 0;
        for (const JobResult &r : first.jobs) {
            cost += r.costUsd;
            interfaces += r.interfaces;
            for (double f : r.perGateFidelity) {
                log_fidelity += std::log(f);
                ++fidelities;
            }
        }
        metrics.add("setup_s", median(setup_s), "s");
        // Mean, not median: on a shared host pass times switch between
        // a fast and a slow mode for seconds at a time, and the median
        // of ~10 passes flips between the modes from run to run.
        metrics.add("e2e_s", mean(walls), "s");
        metrics.add("cpu_s", mean(cpus), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
        metrics.add("cost_usd", cost, "USD");
        metrics.add("interfaces", interfaces, "count");
        metrics.add("fidelity",
                    fidelities > 0
                        ? std::exp(log_fidelity /
                                   static_cast<double>(fidelities))
                        : 0.0,
                    "fraction");
    }
    correct = correct && metrics.finite();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
