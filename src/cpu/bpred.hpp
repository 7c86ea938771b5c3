/**
 * @file
 * Branch prediction: Alpha 21264-style tournament predictor (paper
 * Section 3), BTB, and per-thread return-address stacks.
 *
 * Per-thread: local history table, global path history, choice state.
 * Shared: local and global pattern history tables (saturating
 * counters) — exactly the sharing split the paper describes. The global
 * history is updated non-speculatively (the paper does not update it
 * speculatively either); the RAS implements top-of-stack checkpointing
 * for mis-speculation recovery in the style of Skadron et al.
 */

#ifndef SMTP_CPU_BPRED_HPP
#define SMTP_CPU_BPRED_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/stats.hpp"
#include "snap/snap.hpp"

namespace smtp
{

struct BpredParams
{
    unsigned threads = 2;
    unsigned localHistBits = 10;  ///< 1K local histories per thread.
    unsigned localCtrBits = 3;    ///< 21264: 3-bit local counters.
    unsigned localPhtEntries = 1024;
    unsigned globalHistBits = 12;
    unsigned choiceEntries = 4096;
    unsigned btbSets = 256;
    unsigned btbWays = 4;
    unsigned rasEntries = 32;
};

class TournamentBpred
{
  public:
    explicit TournamentBpred(const BpredParams &params);

    struct Prediction
    {
        bool taken = false;
        std::uint64_t target = 0;
        bool btbHit = false;
        bool fromRas = false;
    };

    /**
     * Predict a branch for @p tid. Calls/returns manipulate the
     * thread's RAS; @p fallthrough is pushed for calls.
     */
    Prediction predict(ThreadId tid, std::uint64_t pc, bool is_cond,
                       bool is_call, bool is_return,
                       std::uint64_t fallthrough);

    /** Non-speculative update at branch resolution. */
    void update(ThreadId tid, std::uint64_t pc, bool taken,
                std::uint64_t target, bool is_cond);

    /** RAS checkpoint/restore for mis-speculation recovery. */
    struct RasCheckpoint
    {
        unsigned top = 0;
        std::uint64_t tosValue = 0;
    };

    RasCheckpoint rasCheckpoint(ThreadId tid) const;
    void rasRestore(ThreadId tid, const RasCheckpoint &cp);

    /** Approximate predictor storage, in bits (paper quotes ~86 Kb). */
    std::uint64_t sizeBits() const;

    Counter lookups, condLookups, mispredicts, btbMisses;

    // ---- Snapshot support (geometry is construction-time; state only) --

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.fixed(threads_,
                 "corrupt snapshot: predictor thread count mismatch",
                 [](Ar &a, ThreadPred &t) {
                     for (std::uint16_t &h : t.localHist)
                         a.u16(h);
                     a.u32(t.globalHist);
                     for (std::uint64_t &r : t.ras)
                         a.u64(r);
                     a.u32(t.rasTop);
                 });
        for (std::uint8_t &c : localPht_)
            ar.u8(c);
        for (std::uint8_t &c : globalPht_)
            ar.u8(c);
        for (std::uint8_t &c : choice_)
            ar.u8(c);
        ar.fixed(btb_, "corrupt snapshot: BTB geometry mismatch",
                 [](Ar &a, BtbEntry &e) {
                     a.u64(e.pc);
                     a.u64(e.target);
                     a.b(e.valid);
                     a.u64(e.lru);
                 });
        ar.u64(btbStamp_);
        ar.obj(lookups, condLookups, mispredicts, btbMisses);
    }

  private:
    struct ThreadPred
    {
        std::vector<std::uint16_t> localHist;
        std::uint32_t globalHist = 0;
        std::vector<std::uint64_t> ras;
        unsigned rasTop = 0; ///< Next push slot (count mod size).
    };

    struct BtbEntry
    {
        std::uint64_t pc = 0;
        std::uint64_t target = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    unsigned
    localIdx(std::uint64_t pc) const
    {
        return static_cast<unsigned>((pc >> 2) & (localHistSize_ - 1));
    }

    BpredParams params_;
    unsigned localHistSize_;
    std::vector<ThreadPred> threads_;
    // Shared pattern history tables.
    std::vector<std::uint8_t> localPht_;   ///< 3-bit counters.
    std::vector<std::uint8_t> globalPht_;  ///< 2-bit counters.
    std::vector<std::uint8_t> choice_;     ///< 2-bit: 0 local, 3 global.
    std::vector<BtbEntry> btb_;
    std::uint64_t btbStamp_ = 0;
};

} // namespace smtp

#endif // SMTP_CPU_BPRED_HPP
