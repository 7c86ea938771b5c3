/**
 * @file
 * Versioned snapshot container: header + named, length-prefixed
 * per-component sections.
 *
 * Layout (all little-endian; docs/checkpointing.md is the normative
 * spec):
 *
 *   offset 0   "SMTPSNAP"            8-byte magic
 *          8   u32 formatVersion     currently kFormatVersion
 *         12   u32 sectionCount
 *         16   u64 configHash        state-affecting config fingerprint
 *         24   sections...
 *
 *   section:   u32 nameLen, name bytes, u64 payloadLen, payload bytes
 *
 * Readers validate the magic, version, section framing and total length
 * before any component sees a byte, so truncation/corruption fails with
 * a diagnostic instead of UB. The config hash gates restore: a snapshot
 * is only loadable into a machine whose state-affecting parameters hash
 * identically.
 */

#ifndef SMTP_SNAP_SNAPFILE_HPP
#define SMTP_SNAP_SNAPFILE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "snap/snap.hpp"

namespace smtp::snap
{

// v2: the workload resume log carries barrier-clock tick epochs (server
// workload request stamps); v1 images are rejected cleanly.
// v3: messages carry the requester's barrier-phase epoch (phase-priority
// directory protocol) and the controller serializes its per-MSHR phase
// stamps and request-arrival queues; older images are rejected cleanly.
// v4: event queues serialize their per-tick mark after the entries and
// the controller its parked-dispatch state (flag and park tick).
// v5: per-instruction completion events are gone; each CPU section ends
// with its pending completions as (due, seq, uid) in key order.
constexpr std::uint32_t kFormatVersion = 5;
constexpr char kMagic[8] = {'S', 'M', 'T', 'P', 'S', 'N', 'A', 'P'};

/** Builds a snapshot in memory, then writes it atomically. */
class SnapWriter
{
  public:
    explicit SnapWriter(std::uint64_t config_hash);

    /** Open a named section; write its payload into the returned Ser. */
    Ser &beginSection(std::string_view name);
    void endSection();

    /** Convenience: one Snapshottable per section. */
    void
    section(std::string_view name, const Snapshottable &s)
    {
        s.saveState(beginSection(name));
        endSection();
    }

    /**
     * Write the finished snapshot to @p path (tmp file + rename, so a
     * concurrent reader never sees a torn file).
     * @return false (with @p err) on I/O failure.
     */
    bool write(const std::string &path, std::string *err = nullptr);

    /** The serialized image (tests, in-memory round trips). */
    std::vector<std::uint8_t> finish();

  private:
    Ser ser_;
    std::uint32_t sectionCount_ = 0;
    std::size_t payloadLenPos_ = 0;
    std::size_t payloadStart_ = 0;
    bool inSection_ = false;
};

/** Parses and validates a snapshot image; hands out per-section Des. */
class SnapReader
{
  public:
    struct Section
    {
        std::string name;
        std::size_t offset; ///< Payload offset into the image.
        std::size_t length;
    };

    /** Load from file. @return false (with error()) on any problem. */
    bool load(const std::string &path);

    /** Parse an in-memory image (tests). */
    bool parse(std::vector<std::uint8_t> image);

    const std::string &error() const { return err_; }
    std::uint32_t formatVersion() const { return version_; }
    std::uint64_t configHash() const { return configHash_; }
    const std::vector<Section> &sections() const { return sections_; }

    bool hasSection(std::string_view name) const;

    /**
     * Deserializer over a named section's payload. Fails the returned
     * Des immediately when the section is missing.
     */
    Des section(std::string_view name) const;

  private:
    std::vector<std::uint8_t> image_;
    std::vector<Section> sections_;
    std::uint32_t version_ = 0;
    std::uint64_t configHash_ = 0;
    std::string err_;
};

} // namespace smtp::snap

#endif // SMTP_SNAP_SNAPFILE_HPP
