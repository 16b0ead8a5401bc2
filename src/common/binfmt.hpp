/**
 * @file
 * Shared little-endian binary section-file framework.
 *
 * The chip and design binary formats (chip/chip_bin.hpp,
 * core/design_bin.hpp) are both "section files": a fixed 64-byte header
 * (8-byte magic, u32 schema version, u32 section count, u64 file size),
 * a table of named sections, and 64-byte-aligned raw payloads. The
 * layout is documented in docs/FILE_FORMATS.md. Payload arrays are
 * plain little-endian scalars laid out SoA, so a reader can hand out
 * typed spans pointing straight into an mmap of the file -- loading is
 * O(sections), not O(bytes).
 *
 * Readers must assume hostile input: every section offset/size is
 * bounds- and overflow-checked against the real file size before any
 * span is produced, unknown magic / future schema versions / truncated
 * or garbled tables all raise ConfigError (never UB, never a huge
 * allocation). Writers produce canonical files: sections in the order
 * added, payloads packed in table order, zero padding.
 *
 * Integrity trailer (opt-in): a writer with enableChecksum() sets bit 0
 * of the u32 flags word at header offset 24 (zero padding in every file
 * written before the flag existed, so old files read as flag-free) and
 * appends a 64-byte trailer -- 8-byte magic "YTCKSUM1", u64 FNV-1a of
 * every byte before the trailer, zero padding. Readers verify the
 * checksum before the section table is trusted and reject unknown flag
 * bits, so a torn or bit-flipped file fails loudly. The chip and design
 * writers stay flag-free so their files are byte-identical to earlier
 * builds; their readers still verify the trailer of any file from
 * outside that carries one.
 */

#ifndef YOUTIAO_COMMON_BINFMT_HPP
#define YOUTIAO_COMMON_BINFMT_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace youtiao::binfmt {

static_assert(std::endian::native == std::endian::little,
              "youtiao binary formats assume a little-endian host");

/** Bytes of the fixed file header. */
inline constexpr std::size_t kHeaderBytes = 64;
/** Bytes of one section-table entry. */
inline constexpr std::size_t kSectionEntryBytes = 32;
/** Payload alignment (and cache-line width) in the file. */
inline constexpr std::size_t kPayloadAlign = 64;
/** Longest section name, including nothing -- names are NOT
 *  NUL-terminated; shorter names are zero-padded. */
inline constexpr std::size_t kSectionNameBytes = 12;
/** Sanity cap on the section table; both formats use far fewer. */
inline constexpr std::uint32_t kMaxSections = 64;
/** Bytes of the optional integrity trailer at the end of the file. */
inline constexpr std::size_t kTrailerBytes = 64;
/** Header flag bit: the file ends in a checksum trailer. */
inline constexpr std::uint32_t kFlagChecksum = 1u;
/** Trailer magic (8 bytes, not NUL-terminated). */
inline constexpr char kTrailerMagic[9] = "YTCKSUM1";

/** FNV-1a over @p size bytes, the trailer's hash function. */
std::uint64_t fnv1a(const void *data, std::size_t size);

/**
 * Read-only view of a whole file, preferring mmap (zero-copy) and
 * falling back to an aligned heap read when mapping fails (e.g. a
 * pipe). Movable, not copyable; unmaps/frees on destruction.
 */
class MappedFile
{
  public:
    /** Map @p path read-only. Throws ConfigError when the file cannot
     *  be opened or read. */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }
    /** True when the view is an actual mmap (diagnostic). */
    bool isMapped() const { return mapped_; }

  private:
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
};

/**
 * Serializes one section file: add named sections, then write. Payload
 * bytes are copied at addSection time, so callers may pass views of
 * temporaries.
 */
class Writer
{
  public:
    /** @p magic must be exactly 8 characters. */
    Writer(const char *magic, std::uint32_t schema_version);

    /** Append a section of @p count elements of @p elem_size bytes
     *  starting at @p data. Names are at most kSectionNameBytes chars
     *  and unique within the file. */
    void addSection(const std::string &name, std::uint32_t elem_size,
                    const void *data, std::uint64_t count);

    /** Convenience overloads for the common payload types. */
    void addF64(const std::string &name, std::span<const double> v)
    {
        addSection(name, 8, v.data(), v.size());
    }
    void addU64(const std::string &name,
                std::span<const std::uint64_t> v)
    {
        addSection(name, 8, v.data(), v.size());
    }
    void addU32(const std::string &name,
                std::span<const std::uint32_t> v)
    {
        addSection(name, 4, v.data(), v.size());
    }
    void addBytes(const std::string &name, std::span<const char> v)
    {
        addSection(name, 1, v.data(), v.size());
    }

    /** Append the integrity trailer when rendering (sets header flag
     *  bit 0). Off by default so existing formats stay byte-identical. */
    void enableChecksum() { checksum_ = true; }

    /** Render the complete file image. */
    std::vector<unsigned char> toBytes() const;

    /** Write the file image to @p path. Throws ConfigError when the
     *  file cannot be created or written. */
    void writeFile(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        std::uint32_t elemSize = 0;
        std::uint64_t count = 0;
        std::vector<unsigned char> payload;
    };

    char magic_[8];
    std::uint32_t schemaVersion_ = 0;
    bool checksum_ = false;
    std::vector<Section> sections_;
};

/**
 * Parses and validates a section file over caller-owned bytes (usually
 * a MappedFile's view, which must outlive the Reader). The constructor
 * checks magic, schema version range, section count, declared vs real
 * file size, and every section's bounds/alignment/uniqueness; accessors
 * then hand out spans into the original bytes without copying.
 */
class Reader
{
  public:
    /**
     * Validate @p bytes as a section file with 8-character @p magic and
     * schema version in [1, @p max_version]. @p what names the file in
     * error messages. Throws ConfigError on any malformation; a version
     * above @p max_version reports "written by a newer youtiao".
     */
    Reader(std::span<const unsigned char> bytes, const char *magic,
           std::uint32_t max_version, const std::string &what);

    /** Schema version the file declares (for migration shims). */
    std::uint32_t schemaVersion() const { return schemaVersion_; }

    /** True when the file carried (and passed) a checksum trailer. */
    bool checksummed() const { return checksummed_; }

    std::size_t sectionCount() const { return sections_.size(); }

    /** True when the file has a section named @p name. */
    bool hasSection(const std::string &name) const;

    /** Element count of section @p name; throws ConfigError if absent. */
    std::uint64_t count(const std::string &name) const;

    /** Typed zero-copy views. Each checks the section exists and was
     *  written with the matching element size. */
    std::span<const double> f64(const std::string &name) const;
    std::span<const std::uint64_t> u64(const std::string &name) const;
    std::span<const std::uint32_t> u32(const std::string &name) const;
    std::span<const char> bytes(const std::string &name) const;

  private:
    struct Section
    {
        std::string name;
        std::uint32_t elemSize = 0;
        std::uint64_t count = 0;
        const unsigned char *data = nullptr;
    };

    const Section &find(const std::string &name,
                        std::uint32_t elem_size) const;

    std::string what_;
    std::uint32_t schemaVersion_ = 0;
    bool checksummed_ = false;
    std::vector<Section> sections_;
};

} // namespace youtiao::binfmt

#endif // YOUTIAO_COMMON_BINFMT_HPP
