#include "common/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace youtiao::checkpoint {

namespace detail {
std::atomic<bool> g_active{false};
} // namespace detail

namespace {

namespace fs = std::filesystem;

constexpr const char *kSnapshotMagic = "YTCKPT01";
constexpr std::uint32_t kSnapshotVersion = 1;
constexpr const char *kManifestName = "MANIFEST.json";
constexpr const char *kManifestSchema = "youtiao-ckpt-1";

/** Everything behind the ambient session; guarded by g_mutex so
 *  parallel tile tasks can store() concurrently. */
struct Session
{
    std::string dir;
    std::uint64_t nextSeq = 1;
    /** Snapshots loaded at open: key -> payload of the highest valid
     *  sequence number. */
    std::map<std::string, std::vector<std::uint8_t>> loaded;
    Stats stats;
};

std::mutex g_mutex;
Session g_session;

std::string
hexU64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

std::string
snapshotFileName(std::uint64_t seq, const std::string &key)
{
    char seq_text[24];
    std::snprintf(seq_text, sizeof seq_text, "%08llu",
                  static_cast<unsigned long long>(seq));
    return std::string("ckpt-") + seq_text + "-" +
           hexU64(binfmt::fnv1a(key.data(), key.size())) + ".bin";
}

/** Sequence number from a snapshot file name, or 0 when the name does
 *  not match the ckpt-<seq>-<hash>.bin shape. */
std::uint64_t
parseSeq(const std::string &name)
{
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 10 ||
        name.substr(name.size() - 4) != ".bin")
        return 0;
    std::uint64_t seq = 0;
    std::size_t i = 5;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        seq = seq * 10 + static_cast<std::uint64_t>(name[i++] - '0');
    if (i >= name.size() || name[i] != '-')
        return 0;
    return seq;
}

std::string
journalManifest(const std::string &tool,
                const std::map<std::string, std::string> &hashes)
{
    std::string out = "{\n  \"schema\": \"";
    out += kManifestSchema;
    out += "\",\n  \"tool\": \"" + json::escape(tool) + "\",\n";
    out += "  \"hashes\": {";
    bool first = true;
    for (const auto &[name, hash] : hashes) {
        out += first ? "\n" : ",\n";
        out += "    \"" + json::escape(name) + "\": \"" +
               json::escape(hash) + "\"";
        first = false;
    }
    out += "\n  }\n}\n";
    return out;
}

/** Verify an existing manifest matches this run's identity; the guard
 *  that stops a resume from splicing results of a different chip,
 *  configuration or seed into the new run. */
void
verifyManifest(const std::string &path, const std::string &tool,
               const std::map<std::string, std::string> &hashes)
{
    std::string text;
    {
        binfmt::MappedFile file(path);
        text.assign(reinterpret_cast<const char *>(file.data()),
                    file.size());
    }
    const json::Value doc = json::parse(text, "checkpoint manifest");
    requireConfig(doc.field("schema").asString("schema") ==
                      kManifestSchema,
                  "checkpoint manifest: unknown schema");
    requireConfig(doc.field("tool").asString("tool") == tool,
                  "checkpoint directory belongs to tool '" +
                      doc.field("tool").asString("tool") +
                      "', refusing to resume as '" + tool + "'");
    const auto &stored = doc.field("hashes").asObject("hashes");
    for (const auto &[name, hash] : hashes) {
        const auto it = stored.find(name);
        requireConfig(it != stored.end() &&
                          it->second.asString(name) == hash,
                      "checkpoint input hash '" + name +
                          "' does not match this run (different "
                          "chip/config/seed); use a fresh checkpoint "
                          "directory");
    }
    requireConfig(stored.size() == hashes.size(),
                  "checkpoint manifest hashes do not match this run");
}

/** Parse one snapshot file into (key, payload). Throws ConfigError on
 *  any corruption -- the caller counts it as rejected. */
std::pair<std::string, std::vector<std::uint8_t>>
readSnapshot(const std::string &path)
{
    requireConfig(!fault::site("checkpoint.read"),
                  "injected checkpoint.read fault");
    binfmt::MappedFile file(path);
    binfmt::Reader reader({file.data(), file.size()}, kSnapshotMagic,
                          kSnapshotVersion, "checkpoint snapshot");
    requireConfig(reader.checksummed(),
                  "checkpoint snapshot lacks its checksum trailer");
    const auto key_bytes = reader.bytes("key");
    const auto data = reader.bytes("data");
    std::vector<std::uint8_t> payload(data.size());
    if (!data.empty())
        std::memcpy(payload.data(), data.data(), data.size());
    return {std::string(key_bytes.data(), key_bytes.size()),
            std::move(payload)};
}

} // namespace

void
open(const std::string &dir, const std::string &tool,
     const std::map<std::string, std::string> &input_hashes, bool resume)
{
    requireInternal(!active(), "checkpoint session already open");
    requireConfig(!dir.empty(), "checkpoint directory must be named");

    std::error_code ec;
    fs::create_directories(dir, ec);
    requireConfig(!ec && fs::is_directory(dir),
                  "cannot create checkpoint directory '" + dir + "'");

    Session session;
    session.dir = dir;

    // Collect existing snapshots in ascending sequence order so the
    // newest valid snapshot of a key wins the dedupe below.
    std::vector<std::pair<std::uint64_t, std::string>> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        const std::uint64_t seq = parseSeq(name);
        if (seq > 0)
            files.emplace_back(seq, entry.path().string());
    }
    std::sort(files.begin(), files.end());

    const std::string manifest_path = dir + "/" + kManifestName;
    if (resume) {
        if (fs::exists(manifest_path)) {
            verifyManifest(manifest_path, tool, input_hashes);
        } else {
            requireConfig(files.empty(),
                          "checkpoint directory '" + dir +
                              "' has snapshots but no manifest; "
                              "refusing to resume");
        }
        for (const auto &[seq, path] : files) {
            try {
                auto [key, payload] = readSnapshot(path);
                session.loaded[key] = std::move(payload);
                session.nextSeq = std::max(session.nextSeq, seq + 1);
            } catch (const ConfigError &e) {
                // A torn or bit-flipped snapshot: reject it and let the
                // previous good one (already loaded, lower seq) or a
                // live recompute cover the key.
                ++session.stats.snapshotsRejected;
                log::warn("checkpoint snapshot rejected",
                          {{"path", path}, {"why", e.what()}});
            }
        }
        session.stats.snapshotsLoaded = session.loaded.size();
    } else {
        // Fresh run: stale snapshots of an earlier run must not be
        // fetched into this one.
        for (const auto &[seq, path] : files)
            fs::remove(path, ec);
        fs::remove(manifest_path, ec);
    }
    io::atomicWriteFile(manifest_path,
                        journalManifest(tool, input_hashes));

    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        g_session = std::move(session);
    }
    detail::g_active.store(true, std::memory_order_relaxed);
    log::info("checkpoint session open",
              {{"dir", dir},
               {"resume", resume ? "1" : "0"},
               {"loaded",
                std::to_string(g_session.stats.snapshotsLoaded)},
               {"rejected",
                std::to_string(g_session.stats.snapshotsRejected)}});
}

void
close()
{
    if (!active())
        return;
    detail::g_active.store(false, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_session.dir.clear();
    g_session.loaded.clear();
    g_session.nextSeq = 1;
}

Stats
stats()
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_session.stats;
}

bool
fetch(const std::string &key, std::vector<std::uint8_t> &payload)
{
    if (!active())
        return false;
    const std::lock_guard<std::mutex> lock(g_mutex);
    const auto it = g_session.loaded.find(key);
    if (it == g_session.loaded.end())
        return false;
    payload = it->second;
    ++g_session.stats.fetchHits;
    return true;
}

void
store(const std::string &key, const void *data, std::size_t size)
{
    if (!active())
        return;
    const std::lock_guard<std::mutex> lock(g_mutex);
    binfmt::Writer writer(kSnapshotMagic, kSnapshotVersion);
    writer.addBytes("key", {key.data(), key.size()});
    writer.addBytes("data",
                    {static_cast<const char *>(data), size});
    writer.enableChecksum();
    std::vector<unsigned char> image = writer.toBytes();

    const std::uint64_t seq = g_session.nextSeq++;
    const std::string path =
        g_session.dir + "/" + snapshotFileName(seq, key);
    // Injected torn write: garble one payload byte so the published
    // file exists but fails its checksum at the next open.
    if (fault::site("checkpoint.write") && !image.empty())
        image[image.size() / 2] ^= 0x40;
    // Injected crash-before-rename: the temp file is written but the
    // snapshot is never published.
    if (fault::site("checkpoint.rename")) {
        io::atomicWriteFileNoThrow(path + ".unpublished",
                                   std::string(image.begin(),
                                               image.end()));
        return;
    }
    try {
        io::atomicWriteFile(path, image.data(), image.size());
        ++g_session.stats.stores;
    } catch (const ConfigError &e) {
        // Losing a snapshot only costs recompute on resume; it must
        // never take down the run it was protecting.
        log::warn("checkpoint store failed",
                  {{"path", path}, {"why", e.what()}});
    }
}

std::string
ByteReader::str()
{
    const std::uint64_t n = u64();
    requireConfig(n <= bytes_.size() - at_,
                  "checkpoint payload: truncated string");
    std::string out(reinterpret_cast<const char *>(bytes_.data() + at_),
                    static_cast<std::size_t>(n));
    at_ += static_cast<std::size_t>(n);
    return out;
}

std::vector<std::size_t>
ByteReader::vecU64()
{
    const std::uint64_t n = u64();
    requireConfig(n <= (bytes_.size() - at_) / 8,
                  "checkpoint payload: truncated u64 vector");
    std::vector<std::size_t> out(static_cast<std::size_t>(n));
    for (auto &x : out)
        x = static_cast<std::size_t>(u64());
    return out;
}

std::vector<double>
ByteReader::vecF64()
{
    const std::uint64_t n = u64();
    requireConfig(n <= (bytes_.size() - at_) / 8,
                  "checkpoint payload: truncated f64 vector");
    std::vector<double> out(static_cast<std::size_t>(n));
    if (n > 0) {
        std::memcpy(out.data(), bytes_.data() + at_,
                    static_cast<std::size_t>(n) * sizeof(double));
        at_ += static_cast<std::size_t>(n) * sizeof(double);
    }
    return out;
}

std::vector<std::vector<std::size_t>>
ByteReader::vecVecU64()
{
    const std::uint64_t n = u64();
    requireConfig(n <= (bytes_.size() - at_) / 8,
                  "checkpoint payload: truncated nested vector");
    std::vector<std::vector<std::size_t>> out(
        static_cast<std::size_t>(n));
    for (auto &inner : out)
        inner = vecU64();
    return out;
}

std::vector<std::string>
ByteReader::vecStr()
{
    const std::uint64_t n = u64();
    requireConfig(n <= (bytes_.size() - at_) / 8,
                  "checkpoint payload: truncated string vector");
    std::vector<std::string> out(static_cast<std::size_t>(n));
    for (auto &s : out)
        s = str();
    return out;
}

void
ByteReader::take(void *out, std::size_t size)
{
    requireConfig(size <= bytes_.size() - at_,
                  "checkpoint payload: truncated");
    std::memcpy(out, bytes_.data() + at_, size);
    at_ += size;
}

} // namespace youtiao::checkpoint
