/**
 * @file
 * Deterministic, seeded fault injection for robustness testing.
 *
 * Real deployments of the designer meet broken inputs and flaky stages:
 * dead qubits, failed wire bonds, infeasible allocations, nets the maze
 * router cannot finish. The fault layer lets tests and campaigns inject
 * those failures *at named sites* inside the pipeline, deterministically,
 * so every "the pipeline survived X" claim is reproducible from a spec
 * string and a seed.
 *
 * Design (mirrors the tracer in common/trace.hpp):
 *  - Instrumented code asks `fault::site("freq.allocate")` at each
 *    injection point. When injection is disabled -- the default -- the
 *    call costs a single relaxed atomic load and branch, so the sites
 *    ship in every binary without measurable overhead and a zero-fault
 *    run is bit-identical to a build without the layer.
 *  - A campaign configures sites from a spec string (the `YOUTIAO_FAULTS`
 *    environment variable or `--inject-faults`):
 *
 *        spec     := entry (',' entry)*
 *        entry    := site [':' rate [':' seed]]
 *        site     := a name from the catalog below
 *        rate     := probability in [0, 1] that a hit fires (default 1)
 *        seed     := uint64 decorrelating this site's stream (default 0)
 *
 *    e.g. `freq.allocate:0.5:7,routing.net:0.1`. Unknown site names and
 *    malformed rates are rejected with ConfigError, so a typo fails the
 *    campaign instead of silently injecting nothing.
 *  - Whether hit number n of a site fires depends only on (site name,
 *    rate, seed, n) -- never on wall clock or thread identity -- so a
 *    fixed spec + seed reproduces the exact same fault pattern and the
 *    exact same DegradationReport. Sites inside parallel regions still
 *    fire deterministically *as a set* (hit n always fires or not), but
 *    which task observes hit n may vary; every current site sits in a
 *    serial stage of the pipeline.
 *
 * configure()/enable()/disable()/reset() must be called from quiescent
 * points (no pipeline work in flight), like trace::Tracer::enable().
 */

#ifndef YOUTIAO_COMMON_FAULT_HPP
#define YOUTIAO_COMMON_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace youtiao::fault {

namespace detail {
extern std::atomic<bool> g_enabled;
/** Slow path of site(): decide whether this hit fires. */
bool siteShouldFire(const char *name);
} // namespace detail

/** True while configured faults are being injected. The single relaxed
 *  load every site pays when injection is off. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Injection point. Returns true when the named site should fail now;
 * the caller implements the failure (drop the coupler, throw the
 * stage's infeasibility error, fail the net). Sites not mentioned in
 * the active spec never fire.
 */
inline bool
site(const char *name)
{
    if (!enabled())
        return false;
    return detail::siteShouldFire(name);
}

/** Per-site campaign accounting. */
struct SiteStats
{
    /** Configured firing probability. */
    double rate = 1.0;
    /** Configured decorrelation seed. */
    std::uint64_t seed = 0;
    /** Times the site was evaluated while enabled. */
    std::uint64_t hits = 0;
    /** Times it fired. */
    std::uint64_t fires = 0;
};

/**
 * Parse @p spec (grammar above) and arm the listed sites. Replaces any
 * previous configuration and resets hit counters; does NOT enable
 * injection -- call enable() once the pipeline is quiescent. An empty
 * spec clears the configuration. Throws ConfigError on malformed
 * entries or unknown site names.
 */
void configure(const std::string &spec);

/**
 * configure() from the YOUTIAO_FAULTS environment variable and enable
 * injection when it is set and non-empty. Returns true when a spec was
 * found and armed.
 */
bool configureFromEnv();

/** Start injecting the configured faults. */
void enable();

/** Stop injecting. Configuration and counters stay readable. */
void disable();

/** Disable and drop all configuration and counters. */
void reset();

/** Stats per configured site (name -> stats), for campaign reports. */
std::map<std::string, SiteStats> stats();

/** The catalog of valid site names, sorted (see docs/FAULT_INJECTION.md
 *  for what each one breaks). */
const std::vector<std::string> &siteCatalog();

/** True when @p name is a cataloged site. */
bool isKnownSite(std::string_view name);

} // namespace youtiao::fault

#endif // YOUTIAO_COMMON_FAULT_HPP
