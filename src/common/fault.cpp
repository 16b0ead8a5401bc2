#include "common/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace youtiao::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/**
 * Injection points compiled into the pipeline. configure() validates
 * spec entries against this list so a misspelled site fails the
 * campaign loudly instead of injecting nothing. Keep in sync with
 * docs/FAULT_INJECTION.md.
 */
const std::vector<std::string> kSiteCatalog = {
    // Sorted; isKnownSite relies on it.
    "chip.load_coupler",   // drop the coupler while loading (broken bond)
    "design.fdm_group",    // XY grouping attempt infeasible -> ladder
    "design.partition",    // partition stage fails -> single region
    "design.readout",      // readout planning fails -> dedicated feeds
    "design.tdm_group",    // TDM grouping fails -> dedicated Z lines
    "freq.allocate",       // allocation attempt infeasible -> ladder
    "routing.net",         // this net's route attempt fails -> retry
    "tdm.demux_channel",   // DEMUX channel broken -> dedicated line
};

struct SiteState
{
    double rate = 1.0;
    std::uint64_t seed = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
};

/**
 * Configured sites. configure()/reset() swap the map only while
 * injection is disabled and the pipeline is quiescent; siteShouldFire
 * reads it without locking (per-site counters are atomic).
 */
std::map<std::string, std::unique_ptr<SiteState>, std::less<>> g_sites;
std::mutex g_configMutex;

/** FNV-1a, decorrelating sites that share the default seed 0. */
std::uint64_t
hashName(std::string_view name)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
trimmed(const std::string &text)
{
    const auto begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

double
parseRate(const std::string &text, const std::string &site_name)
{
    char *end = nullptr;
    const double rate = std::strtod(text.c_str(), &end);
    requireConfig(end != text.c_str() && *end == '\0' && rate >= 0.0 &&
                      rate <= 1.0,
                  "fault spec: rate for site '" + site_name +
                      "' must be a number in [0, 1], got '" + text + "'");
    return rate;
}

std::uint64_t
parseSeed(const std::string &text, const std::string &site_name)
{
    // strtoull silently wraps negative input and saturates on overflow,
    // both of which would change the replayed fault pattern without a
    // word; reject anything but a plain in-range decimal.
    const bool plain_digits =
        !text.empty() && text.find_first_not_of("0123456789") ==
                             std::string::npos;
    errno = 0;
    char *end = nullptr;
    const unsigned long long seed = std::strtoull(text.c_str(), &end, 10);
    requireConfig(plain_digits && end != text.c_str() && *end == '\0' &&
                      errno != ERANGE,
                  "fault spec: seed for site '" + site_name +
                      "' must be a non-negative integer fitting 64 bits, "
                      "got '" + text + "'");
    return static_cast<std::uint64_t>(seed);
}

} // namespace

namespace detail {

bool
siteShouldFire(const char *name)
{
    const auto it = g_sites.find(std::string_view(name));
    if (it == g_sites.end())
        return false;
    SiteState &state = *it->second;
    const std::uint64_t n =
        state.hits.fetch_add(1, std::memory_order_relaxed);
    // Hit n of a site fires iff hash(seed, name, n) lands below the
    // rate: a pure function of the configuration and the hit index, so
    // the pattern replays exactly under the same spec.
    std::uint64_t stream = state.seed ^ hashName(name);
    stream += 0x9E3779B97F4A7C15ull * (n + 1);
    const std::uint64_t mixed = splitMix64(stream);
    const double u =
        static_cast<double>(mixed >> 11) * 0x1.0p-53;
    const bool fire = u < state.rate;
    if (fire)
        state.fires.fetch_add(1, std::memory_order_relaxed);
    return fire;
}

} // namespace detail

void
configure(const std::string &spec)
{
    std::map<std::string, std::unique_ptr<SiteState>, std::less<>> sites;
    std::string rest = spec;
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string entry = trimmed(rest.substr(0, comma));
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        requireConfig(!entry.empty(),
                      "fault spec: empty entry in '" + spec + "'");

        const auto first = entry.find(':');
        const std::string name = trimmed(entry.substr(0, first));
        requireConfig(isKnownSite(name),
                      "fault spec: unknown site '" + name +
                          "' (see docs/FAULT_INJECTION.md for the "
                          "catalog)");
        requireConfig(sites.find(name) == sites.end(),
                      "fault spec: site '" + name + "' listed twice");
        auto state = std::make_unique<SiteState>();
        if (first != std::string::npos) {
            const std::string tail = entry.substr(first + 1);
            const auto second = tail.find(':');
            state->rate = parseRate(trimmed(tail.substr(0, second)), name);
            if (second != std::string::npos) {
                const std::string seed_text =
                    trimmed(tail.substr(second + 1));
                requireConfig(seed_text.find(':') == std::string::npos,
                              "fault spec: too many ':' fields in entry '" +
                                  entry + "'");
                state->seed = parseSeed(seed_text, name);
            }
        }
        sites.emplace(name, std::move(state));
    }

    const std::lock_guard<std::mutex> lock(g_configMutex);
    g_sites = std::move(sites);
}

bool
configureFromEnv()
{
    const char *spec = std::getenv("YOUTIAO_FAULTS");
    if (spec == nullptr || *spec == '\0')
        return false;
    configure(spec);
    enable();
    return true;
}

void
enable()
{
    detail::g_enabled.store(true, std::memory_order_relaxed);
}

void
disable()
{
    detail::g_enabled.store(false, std::memory_order_relaxed);
}

void
reset()
{
    disable();
    const std::lock_guard<std::mutex> lock(g_configMutex);
    g_sites.clear();
}

std::map<std::string, SiteStats>
stats()
{
    std::map<std::string, SiteStats> out;
    const std::lock_guard<std::mutex> lock(g_configMutex);
    for (const auto &[name, state] : g_sites) {
        SiteStats s;
        s.rate = state->rate;
        s.seed = state->seed;
        s.hits = state->hits.load(std::memory_order_relaxed);
        s.fires = state->fires.load(std::memory_order_relaxed);
        out.emplace(name, s);
    }
    return out;
}

const std::vector<std::string> &
siteCatalog()
{
    return kSiteCatalog;
}

bool
isKnownSite(std::string_view name)
{
    return std::binary_search(kSiteCatalog.begin(), kSiteCatalog.end(),
                              name);
}

} // namespace youtiao::fault
