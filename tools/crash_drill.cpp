/**
 * @file
 * crash_drill -- prove the checkpoint/resume path end to end by
 * actually crashing.
 *
 *   crash_drill --mode hier|campaign|drift [--dir DIR] [--seed S]
 *               [--kill-frac F] [--corrupt] [--log-level LEVEL]
 *
 * For the chosen workload the drill forks three children of itself:
 *
 *   A  reference -- runs the workload clean (no checkpoint) and writes
 *      its artifact; the parent measures the wall time T.
 *   B  victim -- runs the same workload with a checkpoint journal and
 *      is SIGKILLed at a seeded fraction of T (no chance to clean up:
 *      this is the crash).
 *   C  survivor -- resumes from B's journal and writes its artifact.
 *
 * The drill passes when C exits 0 and its artifact is byte-identical
 * to A's -- the journal replay spliced B's finished units into exactly
 * the state an uninterrupted run reaches. With --corrupt the victim is
 * allowed to finish, the newest snapshot file is then byte-flipped, and
 * the survivor must report at least one checksum-rejected snapshot yet
 * still land on the identical artifact (the corrupted unit is simply
 * recomputed).
 *
 * Workloads: `hier` designs and routes a 1024-qubit chip tile by tile
 * (per-tile design + routing barriers), `campaign` sweeps a fault
 * campaign (per-cell barriers, fault-counter fast-forward), `drift`
 * replays the three drift policies (per-epoch barriers).
 *
 * Exit codes: 0 drill passed, 1 drill failed, 2 usage.
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "chip/topology_builder.hpp"
#include "common/atomic_io.hpp"
#include "common/checkpoint.hpp"
#include "common/cli_parse.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "core/drift_adaptation.hpp"
#include "core/fault_campaign.hpp"
#include "core/hierarchical.hpp"
#include "core/report.hpp"
#include "core/youtiao.hpp"

namespace {

using namespace youtiao;
namespace fs = std::filesystem;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --mode hier|campaign|drift [--dir DIR] [--seed S]\n"
        "          [--kill-frac F] [--corrupt]\n"
        "          [--log-level error|warn|info|debug]\n"
        "  --mode: which checkpointed workload to crash and resume\n"
        "  --dir: scratch directory (default crash_drill_<mode>)\n"
        "  --seed: drill seed; picks the kill point (default 1)\n"
        "  --kill-frac: override the kill point as a fraction of the\n"
        "    clean run's wall time (0 < F < 1)\n"
        "  --corrupt: let the victim finish, byte-flip the newest\n"
        "    snapshot, and require the survivor to reject it\n",
        argv0);
    std::exit(2);
}

/**
 * Text fingerprint of a merged hierarchical design. The synthesized
 * merge never builds chip-wide crosstalk predictions, so it is not a
 * saveable design (saveDesign refuses it); its per-qubit and per-device
 * plan maps and its cost pin everything the merge and seam stitch
 * produce.
 */
void
writeMergedPlans(std::ostream &out, const YoutiaoDesign &merged)
{
    const auto row = [&out](const char *key, const auto &values) {
        out << key;
        for (const auto &value : values)
            out << ' ' << value;
        out << '\n';
    };
    out.precision(17);
    row("xy.line_of_qubit", merged.xyPlan.lineOfQubit);
    row("freq.ghz", merged.frequencyPlan.frequencyGHz);
    row("z.group_of_device", merged.zPlan.groupOfDevice);
    row("readout.feedline_of_qubit", merged.readout.feedlineOfQubit);
    row("readout.resonator_ghz", merged.readout.resonatorGHz);
    out << "cost.usd " << merged.costUsd << '\n';
}

/**
 * The workload under test. Runs the mode's pipeline -- against a
 * checkpoint journal when @p ckpt_dir is non-empty -- and atomically
 * writes the finished artifact to @p artifact_path. With @p stats_path
 * non-empty the end-of-run checkpoint::Stats are dumped there so the
 * parent can assert on snapshot rejection from outside the process.
 * Returns the process exit code.
 */
int
runWorkload(const std::string &mode, const std::string &artifact_path,
            const std::string &ckpt_dir, bool resume,
            const std::string &stats_path)
{
    if (!ckpt_dir.empty())
        checkpoint::open(ckpt_dir, "crash_drill_" + mode,
                         {{"seed", "7"}}, resume);

    std::string artifact;
    if (mode == "hier") {
        // 32x32 = 1024 qubits: enough tiles that a mid-run SIGKILL
        // lands between per-tile barriers, small enough to drill in CI.
        const ChipTopology chip = makeSquareGrid(32, 32);
        YoutiaoConfig config;
        config.seed = 7;
        HierarchicalConfig hier;
        hier.tileSizeQubits = 64;
        const HierarchicalDesigner designer(config, hier);
        Expected<HierarchicalDesign, DesignError> result =
            designer.designSynthesizedRobust(chip);
        if (!result.hasValue()) {
            std::fprintf(stderr, "drill workload failed: %s\n",
                         result.error().toString().c_str());
            return 1;
        }
        const HierarchicalDesign &design = result.value();
        const HierarchicalRouting routing =
            routeHierarchical(chip, design);
        std::ostringstream out;
        out << hierarchicalReport(chip, design, config);
        out << "nets=" << routing.totalNets
            << " failed=" << routing.failedConnections
            << " clean=" << routing.clean() << "\n";
        writeMergedPlans(out, design.merged);
        artifact = out.str();
    } else if (mode == "campaign") {
        const ChipTopology chip = makeSquareGrid(5, 5);
        FaultCampaignConfig campaign;
        campaign.seedsPerRate = 4;
        campaign.baseSeed = 7;
        campaign.designer.seed = 7;
        // Fault injection exercises the counter fast-forward: a resumed
        // sweep must fire the same faults in the same cells.
        campaign.faultSpec = "freq.allocate:0.05:7";
        artifact = runFaultCampaign(chip, campaign).toJson();
    } else if (mode == "drift") {
        const ChipTopology chip = makeSquareGrid(6, 6);
        Prng prng(7);
        const ChipCharacterization data = characterizeChip(chip, prng);
        YoutiaoConfig config;
        config.seed = 7;
        const YoutiaoDesign design =
            YoutiaoDesigner(config).designFromMeasurements(chip, data);
        DriftConfig drift;
        drift.epochs = 48;
        drift.seed = 0xD21F7;
        const DriftTrace trace = simulateDrift(chip.qubitCount(), drift);
        std::vector<DriftAdaptationResult> results;
        for (DriftPolicy policy :
             {DriftPolicy::Static, DriftPolicy::Hopping,
              DriftPolicy::Reallocate}) {
            DriftAdaptationConfig adapt;
            adapt.policy = policy;
            adapt.hop.seed = 7;
            const DriftAdapter adapter(config, adapt);
            results.push_back(adapter.run(chip, design, data, trace));
        }
        artifact = driftResultsToJson(trace, results);
    } else {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    }

    io::atomicWriteFile(artifact_path, artifact);
    if (!stats_path.empty()) {
        const checkpoint::Stats st = checkpoint::stats();
        std::ostringstream out;
        out << "loaded=" << st.snapshotsLoaded
            << " rejected=" << st.snapshotsRejected
            << " stores=" << st.stores << " hits=" << st.fetchHits
            << "\n";
        io::atomicWriteFile(stats_path, out.str());
    }
    checkpoint::close();
    return 0;
}

/** Fork and run @p mode's workload in the child; returns the pid. */
pid_t
spawnWorkload(const std::string &mode, const std::string &artifact_path,
              const std::string &ckpt_dir, bool resume,
              const std::string &stats_path)
{
    // Flush before forking so buffered output is not emitted twice.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        int code = 1;
        try {
            code = runWorkload(mode, artifact_path, ckpt_dir, resume,
                               stats_path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "drill child failed: %s\n", e.what());
        }
        std::fflush(stdout);
        std::fflush(stderr);
        // _exit: the child shares the parent's atexit/static state and
        // must not run its destructors.
        _exit(code);
    }
    return pid;
}

/** Wait for @p pid; returns its exit code, or -signal when killed. */
int
waitChild(pid_t pid)
{
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
        std::perror("waitpid");
        std::exit(1);
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return -WTERMSIG(status);
    return 1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Newest (highest-sequence) snapshot file in the journal, or empty. */
std::string
newestSnapshot(const std::string &dir)
{
    std::string best;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ckpt-", 0) != 0)
            continue;
        // Sequence-prefixed names sort lexicographically.
        if (best.empty() ||
            name > fs::path(best).filename().string())
            best = entry.path().string();
    }
    return best;
}

/** Flip one payload byte of @p path in place. */
bool
corruptSnapshot(const std::string &path)
{
    std::string bytes = slurp(path);
    if (bytes.size() < 40)
        return false;
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string dir;
    std::uint64_t seed = 1;
    double kill_frac = 0.0;
    bool corrupt = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--mode")
                mode = next();
            else if (arg == "--dir")
                dir = next();
            else if (arg == "--seed")
                seed = parseUint64Arg(next(), "--seed");
            else if (arg == "--kill-frac") {
                kill_frac = parsePositiveDoubleArg(next(), "--kill-frac");
                requireConfig(kill_frac < 1.0,
                              "--kill-frac must be below 1");
            } else if (arg == "--corrupt")
                corrupt = true;
            else if (arg == "--log-level") {
                const char *name = next();
                if (!log::setLevelByName(name))
                    usage(argv[0]);
            } else
                usage(argv[0]);
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (mode != "hier" && mode != "campaign" && mode != "drift")
        usage(argv[0]);
    if (dir.empty())
        dir = "crash_drill_" + mode;

    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    const std::string ckpt_dir = dir + "/ckpt";
    const std::string artifact_a = dir + "/reference.out";
    const std::string artifact_b = dir + "/victim.out";
    const std::string artifact_c = dir + "/survivor.out";
    const std::string stats_c = dir + "/survivor.stats";

    // A: clean reference run, timed to place the kill point.
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t ref = spawnWorkload(mode, artifact_a, "", false, "");
    if (waitChild(ref) != 0) {
        std::fprintf(stderr, "FAIL: reference run failed\n");
        return 1;
    }
    const double ref_us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());

    // B: checkpointed victim. Without --corrupt it is SIGKILLed at a
    // seeded fraction of the reference time -- splitmix-style hash so
    // different seeds probe different barriers; with --corrupt it runs
    // to completion so the journal is full before we damage it.
    const pid_t victim =
        spawnWorkload(mode, artifact_b, ckpt_dir, false, "");
    if (corrupt) {
        waitChild(victim);
    } else {
        double frac = kill_frac;
        if (frac <= 0.0) {
            std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            frac = 0.2 + 0.6 * static_cast<double>(z >> 11) /
                             9007199254740992.0;
        }
        ::usleep(static_cast<useconds_t>(frac * ref_us));
        ::kill(victim, SIGKILL);
        const int victim_status = waitChild(victim);
        if (victim_status == 0)
            std::printf("note: victim finished before the kill point "
                        "(resume will be a full replay)\n");
    }

    std::size_t snapshots = 0;
    if (fs::exists(ckpt_dir))
        for (const fs::directory_entry &entry :
             fs::directory_iterator(ckpt_dir))
            if (entry.path().filename().string().rfind("ckpt-", 0) == 0)
                ++snapshots;

    if (corrupt) {
        const std::string target = newestSnapshot(ckpt_dir);
        if (target.empty() || !corruptSnapshot(target)) {
            std::fprintf(stderr,
                         "FAIL: no snapshot available to corrupt\n");
            return 1;
        }
        std::printf("corrupted %s\n", target.c_str());
    }

    // C: survivor resumes the journal.
    const pid_t survivor =
        spawnWorkload(mode, artifact_c, ckpt_dir, true, stats_c);
    if (waitChild(survivor) != 0) {
        std::fprintf(stderr, "FAIL: resumed run failed\n");
        return 1;
    }

    const std::string reference = slurp(artifact_a);
    const std::string resumed = slurp(artifact_c);
    const std::string stats = slurp(stats_c);
    std::printf("mode=%s snapshots=%zu reference=%zu bytes "
                "resumed=%zu bytes\n%s",
                mode.c_str(), snapshots, reference.size(),
                resumed.size(), stats.c_str());
    if (reference.empty() || reference != resumed) {
        std::fprintf(stderr,
                     "FAIL: resumed artifact differs from the clean "
                     "run's\n");
        return 1;
    }
    if (corrupt && stats.find("rejected=0") != std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: corrupted snapshot was not rejected\n");
        return 1;
    }
    std::printf("PASS: resume is byte-identical to the clean run\n");
    return 0;
}
