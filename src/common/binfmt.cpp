#include "common/binfmt.hpp"

#include <cstdio>
#include <fstream>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define YOUTIAO_BINFMT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace youtiao::binfmt {

namespace {

std::size_t
roundUpToAlign(std::size_t n)
{
    return (n + kPayloadAlign - 1) & ~(kPayloadAlign - 1);
}

void
storeU32(unsigned char *at, std::uint32_t v)
{
    std::memcpy(at, &v, sizeof v);
}

void
storeU64(unsigned char *at, std::uint64_t v)
{
    std::memcpy(at, &v, sizeof v);
}

std::uint32_t
loadU32(const unsigned char *at)
{
    std::uint32_t v = 0;
    std::memcpy(&v, at, sizeof v);
    return v;
}

std::uint64_t
loadU64(const unsigned char *at)
{
    std::uint64_t v = 0;
    std::memcpy(&v, at, sizeof v);
    return v;
}

/** Read a whole file into a heap buffer (mmap fallback and non-POSIX
 *  path). Returns nullptr only for zero-size files. */
const unsigned char *
readWholeFile(const std::string &path, std::size_t size)
{
    if (size == 0)
        return nullptr;
    std::ifstream in(path, std::ios::binary);
    requireConfig(static_cast<bool>(in),
                  "cannot open '" + path + "' for reading");
    auto *buffer = new unsigned char[size];
    in.read(reinterpret_cast<char *>(buffer),
            static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in.gcount()) != size) {
        delete[] buffer;
        throw ConfigError("short read from '" + path + "'");
    }
    return buffer;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

MappedFile::MappedFile(const std::string &path)
{
#if YOUTIAO_BINFMT_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    requireConfig(fd >= 0, "cannot open '" + path + "' for reading");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw ConfigError("cannot stat '" + path + "'");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
        void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
            data_ = static_cast<const unsigned char *>(map);
            mapped_ = true;
        }
    }
    ::close(fd);
    if (!mapped_)
        data_ = readWholeFile(path, size_);
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    requireConfig(static_cast<bool>(in),
                  "cannot open '" + path + "' for reading");
    size_ = static_cast<std::size_t>(in.tellg());
    in.close();
    data_ = readWholeFile(path, size_);
#endif
}

MappedFile::~MappedFile()
{
    if (data_ == nullptr)
        return;
#if YOUTIAO_BINFMT_HAVE_MMAP
    if (mapped_) {
        ::munmap(const_cast<unsigned char *>(data_), size_);
        return;
    }
#endif
    delete[] data_;
}

Writer::Writer(const char *magic, std::uint32_t schema_version)
    : schemaVersion_(schema_version)
{
    requireInternal(magic != nullptr && std::strlen(magic) == 8,
                    "binfmt: magic must be exactly 8 characters");
    requireInternal(schema_version >= 1,
                    "binfmt: schema version must be >= 1");
    std::memcpy(magic_, magic, 8);
}

void
Writer::addSection(const std::string &name, std::uint32_t elem_size,
                   const void *data, std::uint64_t count)
{
    requireInternal(!name.empty() && name.size() <= kSectionNameBytes,
                    "binfmt: section name '" + name +
                        "' must be 1.." +
                        std::to_string(kSectionNameBytes) + " chars");
    requireInternal(elem_size >= 1, "binfmt: zero element size");
    requireInternal(sections_.size() < kMaxSections,
                    "binfmt: too many sections");
    for (const Section &s : sections_)
        requireInternal(s.name != name,
                        "binfmt: duplicate section '" + name + "'");
    Section section;
    section.name = name;
    section.elemSize = elem_size;
    section.count = count;
    const std::size_t bytes =
        static_cast<std::size_t>(count) * elem_size;
    section.payload.resize(bytes);
    if (bytes > 0)
        std::memcpy(section.payload.data(), data, bytes);
    sections_.push_back(std::move(section));
}

std::vector<unsigned char>
Writer::toBytes() const
{
    // Lay out: header, section table, then payloads in table order,
    // each aligned to kPayloadAlign.
    std::size_t cursor =
        kHeaderBytes + kSectionEntryBytes * sections_.size();
    std::vector<std::uint64_t> offsets;
    offsets.reserve(sections_.size());
    for (const Section &s : sections_) {
        cursor = roundUpToAlign(cursor);
        offsets.push_back(cursor);
        cursor += s.payload.size();
    }
    const std::size_t payload_end = cursor;
    const std::size_t file_size =
        payload_end + (checksum_ ? kTrailerBytes : 0);

    std::vector<unsigned char> out(file_size, 0);
    std::memcpy(out.data(), magic_, 8);
    storeU32(out.data() + 8, schemaVersion_);
    storeU32(out.data() + 12,
             static_cast<std::uint32_t>(sections_.size()));
    storeU64(out.data() + 16, file_size);
    if (checksum_)
        storeU32(out.data() + 24, kFlagChecksum);

    for (std::size_t i = 0; i < sections_.size(); ++i) {
        const Section &s = sections_[i];
        unsigned char *entry =
            out.data() + kHeaderBytes + kSectionEntryBytes * i;
        std::memcpy(entry, s.name.data(), s.name.size());
        storeU32(entry + kSectionNameBytes, s.elemSize);
        storeU64(entry + kSectionNameBytes + 4, offsets[i]);
        storeU64(entry + kSectionNameBytes + 12, s.count);
        if (!s.payload.empty())
            std::memcpy(out.data() + offsets[i], s.payload.data(),
                        s.payload.size());
    }
    if (checksum_) {
        // Hash everything before the trailer -- header (including the
        // declared size and flags), table, payloads and padding -- so a
        // flip anywhere in the file invalidates the trailer.
        unsigned char *trailer = out.data() + payload_end;
        std::memcpy(trailer, kTrailerMagic, 8);
        storeU64(trailer + 8, fnv1a(out.data(), payload_end));
    }
    return out;
}

Reader::Reader(std::span<const unsigned char> bytes, const char *magic,
               std::uint32_t max_version, const std::string &what)
    : what_(what)
{
    requireInternal(magic != nullptr && std::strlen(magic) == 8,
                    "binfmt: magic must be exactly 8 characters");
    requireConfig(bytes.size() >= kHeaderBytes,
                  what_ + ": truncated (smaller than the header)");
    requireConfig(std::memcmp(bytes.data(), magic, 8) == 0,
                  what_ + ": bad magic (not a " + std::string(magic) +
                      " file)");
    schemaVersion_ = loadU32(bytes.data() + 8);
    requireConfig(schemaVersion_ >= 1,
                  what_ + ": schema version 0 is invalid");
    requireConfig(schemaVersion_ <= max_version,
                  what_ + ": schema version " +
                      std::to_string(schemaVersion_) +
                      " written by a newer youtiao (this build reads "
                      "up to version " +
                      std::to_string(max_version) + ")");
    const std::uint32_t section_count = loadU32(bytes.data() + 12);
    requireConfig(section_count <= kMaxSections,
                  what_ + ": implausible section count " +
                      std::to_string(section_count));
    const std::uint64_t declared_size = loadU64(bytes.data() + 16);
    requireConfig(declared_size == bytes.size(),
                  what_ + ": declared size " +
                      std::to_string(declared_size) +
                      " does not match the real size " +
                      std::to_string(bytes.size()) +
                      " (truncated or corrupt)");
    const std::uint32_t flags = loadU32(bytes.data() + 24);
    requireConfig((flags & ~kFlagChecksum) == 0,
                  what_ + ": unknown header flags " +
                      std::to_string(flags) +
                      " (written by a newer youtiao)");
    // Sections must fit before the trailer when one is present; verify
    // the checksum before trusting a single table entry.
    std::size_t payload_end = bytes.size();
    if ((flags & kFlagChecksum) != 0) {
        requireConfig(bytes.size() >= kHeaderBytes + kTrailerBytes,
                      what_ + ": too small for its checksum trailer");
        payload_end = bytes.size() - kTrailerBytes;
        const unsigned char *trailer = bytes.data() + payload_end;
        requireConfig(std::memcmp(trailer, kTrailerMagic, 8) == 0,
                      what_ + ": checksum trailer magic is garbled "
                              "(truncated or corrupt)");
        const std::uint64_t stored = loadU64(trailer + 8);
        const std::uint64_t actual = fnv1a(bytes.data(), payload_end);
        requireConfig(stored == actual,
                      what_ + ": checksum mismatch (file corrupt)");
        checksummed_ = true;
    }
    const std::size_t table_end =
        kHeaderBytes +
        kSectionEntryBytes * static_cast<std::size_t>(section_count);
    requireConfig(table_end <= payload_end,
                  what_ + ": section table truncated");

    sections_.reserve(section_count);
    for (std::uint32_t i = 0; i < section_count; ++i) {
        const unsigned char *entry =
            bytes.data() + kHeaderBytes + kSectionEntryBytes * i;
        Section section;
        // Names are zero-padded; padding after the first NUL must stay
        // NUL, so a garbled table cannot alias two spellings of one
        // name.
        std::size_t len = 0;
        while (len < kSectionNameBytes && entry[len] != '\0')
            ++len;
        for (std::size_t j = len; j < kSectionNameBytes; ++j)
            requireConfig(entry[j] == '\0',
                          what_ + ": garbled section name in entry " +
                              std::to_string(i));
        requireConfig(len > 0, what_ + ": empty section name in entry " +
                                   std::to_string(i));
        section.name.assign(reinterpret_cast<const char *>(entry), len);
        section.elemSize = loadU32(entry + kSectionNameBytes);
        const std::uint64_t offset =
            loadU64(entry + kSectionNameBytes + 4);
        section.count = loadU64(entry + kSectionNameBytes + 12);
        requireConfig(section.elemSize >= 1,
                      what_ + ": section '" + section.name +
                          "' has zero element size");
        requireConfig(offset % kPayloadAlign == 0,
                      what_ + ": section '" + section.name +
                          "' payload is misaligned");
        // Overflow-safe bounds: divide instead of multiplying the
        // attacker-controlled count by the element size.
        requireConfig(offset <= payload_end &&
                          section.count <= (payload_end - offset) /
                                               section.elemSize,
                      what_ + ": section '" + section.name +
                          "' extends past the end of the file");
        for (const Section &other : sections_)
            requireConfig(other.name != section.name,
                          what_ + ": duplicate section '" +
                              section.name + "'");
        section.data = bytes.data() + offset;
        sections_.push_back(std::move(section));
    }
}

const Reader::Section &
Reader::find(const std::string &name, std::uint32_t elem_size) const
{
    for (const Section &s : sections_) {
        if (s.name != name)
            continue;
        if (s.elemSize != elem_size)
            throw ConfigError(what_ + ": section '" + name +
                              "' has element size " +
                              std::to_string(s.elemSize) + ", expected " +
                              std::to_string(elem_size));
        return s;
    }
    throw ConfigError(what_ + ": missing section '" + name + "'");
}

std::span<const double>
Reader::f64(const std::string &name) const
{
    const Section &s = find(name, 8);
    return {reinterpret_cast<const double *>(s.data),
            static_cast<std::size_t>(s.count)};
}

std::span<const std::uint64_t>
Reader::u64(const std::string &name) const
{
    const Section &s = find(name, 8);
    return {reinterpret_cast<const std::uint64_t *>(s.data),
            static_cast<std::size_t>(s.count)};
}

std::span<const std::uint32_t>
Reader::u32(const std::string &name) const
{
    const Section &s = find(name, 4);
    return {reinterpret_cast<const std::uint32_t *>(s.data),
            static_cast<std::size_t>(s.count)};
}

std::span<const char>
Reader::bytes(const std::string &name) const
{
    const Section &s = find(name, 1);
    return {reinterpret_cast<const char *>(s.data),
            static_cast<std::size_t>(s.count)};
}

} // namespace youtiao::binfmt
