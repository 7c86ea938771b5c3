/**
 * @file
 * Node-local protocol data store.
 *
 * The architectural contents of the protocol data space: directory
 * entries, the pending-transaction table and handler scratch state. The
 * cache hierarchy provides the *timing* for accesses to these addresses;
 * the values live here and are read/written by the functional handler
 * executor. Sparse, byte-addressable in 4- or 8-byte quantities,
 * zero-initialised (a zero directory entry is Unowned — exactly the
 * reset state of a real directory memory).
 */

#ifndef SMTP_MEM_PROTOCOL_RAM_HPP
#define SMTP_MEM_PROTOCOL_RAM_HPP

#include <cstdint>
#include <unordered_map>

#include "common/log.hpp"
#include "common/types.hpp"
#include "snap/snap.hpp"

namespace smtp
{

class ProtocolRam
{
  public:
    std::uint64_t
    read(Addr addr, unsigned bytes) const
    {
        SMTP_ASSERT(bytes == 4 || bytes == 8, "unsupported access size");
        SMTP_ASSERT(addr % bytes == 0, "misaligned protocol access");
        Addr word = addr & ~7ULL;
        auto it = words_.find(word);
        std::uint64_t v = it == words_.end() ? 0 : it->second;
        if (bytes == 8)
            return v;
        unsigned shift = (addr & 4) ? 32 : 0;
        return (v >> shift) & 0xffffffffULL;
    }

    void
    write(Addr addr, std::uint64_t value, unsigned bytes)
    {
        SMTP_ASSERT(bytes == 4 || bytes == 8, "unsupported access size");
        SMTP_ASSERT(addr % bytes == 0, "misaligned protocol access");
        Addr word = addr & ~7ULL;
        if (bytes == 8) {
            if (value == 0)
                words_.erase(word);
            else
                words_[word] = value;
            return;
        }
        std::uint64_t v = words_[word];
        unsigned shift = (addr & 4) ? 32 : 0;
        v &= ~(0xffffffffULL << shift);
        v |= (value & 0xffffffffULL) << shift;
        if (v == 0)
            words_.erase(word);
        else
            words_[word] = v;
    }

    /** Number of resident (non-zero) 8-byte words, for tests. */
    std::size_t residentWords() const { return words_.size(); }

    template <class Ar> void io(Ar &ar) { ar.wordMap(words_); }

  private:
    std::unordered_map<Addr, std::uint64_t> words_;
};

} // namespace smtp

#endif // SMTP_MEM_PROTOCOL_RAM_HPP
