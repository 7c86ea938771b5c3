/**
 * @file
 * Snapshot inspection CLI (docs/debugging.md):
 *
 *   snap_tool inspect FILE     header + section table
 *   snap_tool validate FILE    container-level integrity check
 *   snap_tool diff A B         first state divergence, per section
 *
 * `diff` is the state-divergence debugger: snapshot two machines that
 * should agree (e.g. an uninterrupted run vs. a restored one at the
 * same tick, or a serial vs. a parallel run) and it names the first
 * component section whose bytes differ and the offset of the first
 * differing byte, with a hex context window — narrowing "the machines
 * diverged somewhere" to "node1.cpu, byte 4132".
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "snap/snapfile.hpp"

namespace
{

using smtp::snap::SnapReader;

int
usage()
{
    std::fprintf(stderr,
                 "usage: snap_tool inspect FILE\n"
                 "       snap_tool validate FILE\n"
                 "       snap_tool diff A B\n");
    return 2;
}

bool
loadOrComplain(SnapReader &r, const std::string &path)
{
    if (r.load(path))
        return true;
    std::fprintf(stderr, "%s: %s\n", path.c_str(), r.error().c_str());
    return false;
}

int
inspect(const std::string &path)
{
    SnapReader r;
    if (!loadOrComplain(r, path))
        return 1;
    std::printf("%s\n", path.c_str());
    std::printf("  format version : %u\n", r.formatVersion());
    std::printf("  config hash    : %016llx\n",
                static_cast<unsigned long long>(r.configHash()));
    std::printf("  sections       : %zu\n", r.sections().size());
    std::size_t total = 0;
    for (const auto &s : r.sections()) {
        std::printf("    %-24s %10zu bytes @ %zu\n", s.name.c_str(),
                    s.length, s.offset);
        total += s.length;
    }
    std::printf("  payload total  : %zu bytes\n", total);
    return 0;
}

int
validate(const std::string &path)
{
    SnapReader r;
    if (!loadOrComplain(r, path))
        return 1;
    // The container parse already validated magic, version, and that
    // every section's framing lies inside the file; per-component
    // payload decoding additionally requires a matching machine, which
    // Machine::restore performs. Report what can be proven here.
    std::printf("%s: ok (version %u, %zu sections, config %016llx)\n",
                path.c_str(), r.formatVersion(), r.sections().size(),
                static_cast<unsigned long long>(r.configHash()));
    return 0;
}

void
hexContext(const std::vector<std::uint8_t> &img, std::size_t begin,
           std::size_t end, std::size_t mark)
{
    for (std::size_t i = begin; i < end; ++i)
        std::printf(i == mark ? "[%02x]" : " %02x ", img[i]);
    std::printf("\n");
}

int
diff(const std::string &pa, const std::string &pb)
{
    SnapReader a, b;
    if (!loadOrComplain(a, pa) || !loadOrComplain(b, pb))
        return 1;
    int divergences = 0;
    if (a.configHash() != b.configHash()) {
        std::printf("config hash differs: %016llx vs %016llx "
                    "(different machine configurations)\n",
                    static_cast<unsigned long long>(a.configHash()),
                    static_cast<unsigned long long>(b.configHash()));
        ++divergences;
    }
    // Compare section by section, in A's order, so the report reads in
    // restore order (workload, cpus, controllers, caches, ...).
    for (const auto &sa : a.sections()) {
        if (!b.hasSection(sa.name)) {
            std::printf("%-24s only in %s\n", sa.name.c_str(),
                        pa.c_str());
            ++divergences;
            continue;
        }
        const SnapReader::Section *sb = nullptr;
        for (const auto &s : b.sections())
            if (s.name == sa.name)
                sb = &s;
        smtp::snap::Des da = a.section(sa.name);
        smtp::snap::Des db = b.section(sa.name);
        // Des exposes only typed reads; compare via the raw images.
        std::vector<std::uint8_t> ia(sa.length), ib(sb->length);
        da.read(ia.data(), ia.size());
        db.read(ib.data(), ib.size());
        std::size_t n = std::min(ia.size(), ib.size());
        std::size_t at = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (ia[i] != ib[i]) {
                at = i;
                break;
            }
        }
        if (at == n && ia.size() == ib.size())
            continue; // identical
        ++divergences;
        if (at == n) {
            std::printf("%-24s sizes differ: %zu vs %zu bytes "
                        "(common prefix identical)\n",
                        sa.name.c_str(), ia.size(), ib.size());
            continue;
        }
        std::printf("%-24s first divergence at byte %zu of %zu\n",
                    sa.name.c_str(), at, n);
        std::size_t lo = at >= 8 ? at - 8 : 0;
        std::size_t hi = std::min(at + 9, n);
        std::printf("  %-12s", pa.size() <= 12 ? pa.c_str() : "A:");
        hexContext(ia, lo, hi, at);
        std::printf("  %-12s", pb.size() <= 12 ? pb.c_str() : "B:");
        hexContext(ib, lo, hi, at);
    }
    for (const auto &sb : b.sections()) {
        if (!a.hasSection(sb.name)) {
            std::printf("%-24s only in %s\n", sb.name.c_str(),
                        pb.c_str());
            ++divergences;
        }
    }
    if (divergences == 0) {
        std::printf("identical: %zu sections, config %016llx\n",
                    a.sections().size(),
                    static_cast<unsigned long long>(a.configHash()));
        return 0;
    }
    std::printf("%d diverging section(s)\n", divergences);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "inspect")
        return inspect(argv[2]);
    if (cmd == "validate")
        return validate(argv[2]);
    if (cmd == "diff" && argc >= 4)
        return diff(argv[2], argv[3]);
    return usage();
}
