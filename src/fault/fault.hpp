/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultPlan describes *what* can go wrong (per-link message drops,
 * duplications, delay jitter and bounded reordering on the network;
 * transient single/double bit flips under an SEC-DED ECC model in the
 * SDRAM; forced NAKs at the protocol dispatch unit) and a FaultInjector
 * turns the plan into a seeded, fully deterministic decision stream the
 * existing layers consult at their hook points.
 *
 * Determinism contract: every decision is drawn from an explicitly
 * seeded Rng owned by the injector. Streams are partitioned per node
 * (one network stream, one SDRAM stream and one protocol stream each),
 * so the injected-event schedule is a pure function of (plan, per-node
 * event order) — identical across runs, across sweep worker counts,
 * and across the serial/parallel execution kernels, because every hook
 * is only ever consulted from the shard that owns the node. With no
 * injector attached (the default) every hook is a single null-pointer
 * test and simulated timing is bit-identical to a build without this
 * subsystem.
 *
 * Fault semantics are recoverable by construction (docs/robustness.md):
 *
 *  - dropped link transmissions are retried by a link-level
 *    ack/retransmit protocol (SGI Spider LLP style), modelled as added
 *    latency plus repeated link occupancy — never message loss;
 *  - duplicated deliveries carry a link-sequence flag and are filtered
 *    at the landing buffer, so the protocol layer sees each message
 *    exactly once;
 *  - single-bit SDRAM flips are corrected in the ECC datapath (and
 *    scrubbed); double-bit flips are detected and satisfied by a
 *    refetch, costing one extra device access;
 *  - forced NAKs ride the protocol's own NAK-and-retry path.
 *
 * The one deliberate exception is the injectDropWithoutRetransmit bug
 * hook (analogous to proto::HandlerOptions::injectSkipFirstInval):
 * it turns a drop into real loss so tests can prove the checker and
 * watchdog catch unrecovered messages.
 */

#ifndef SMTP_FAULT_FAULT_HPP
#define SMTP_FAULT_FAULT_HPP

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/stats.hpp"
#include "snap/snap.hpp"
#include "trace/trace.hpp"

namespace smtp::fault
{

/**
 * A seeded description of the faults to inject. All probabilities are
 * per-decision (per link traversal, per SDRAM read, per eligible
 * dispatch) and default to zero, so a default plan is fully disabled.
 */
struct FaultPlan
{
    std::uint64_t seed = 1;

    // ---- Network (per physical-link traversal) -----------------------
    double netDrop = 0.0;    ///< Transmission corrupted; LLP retransmits.
    double netDup = 0.0;     ///< Delivery duplicated; filtered by seq.
    double netDelay = 0.0;   ///< Extra jitter on this traversal.
    double netReorder = 0.0; ///< Adjacent cross-source landing swap.
    Tick netDelayMax = 200 * tickPerNs;       ///< Jitter upper bound.
    Tick retransmitTimeout = 400 * tickPerNs; ///< Per lost transmission.
    unsigned maxRetransmits = 8; ///< Cap on consecutive corruptions.

    // ---- SDRAM (per read access, SEC-DED ECC) ------------------------
    double memFlipSingle = 0.0; ///< Corrected on the fly + scrubbed.
    double memFlipDouble = 0.0; ///< Detected; satisfied by a refetch.

    // ---- Protocol ----------------------------------------------------
    /** Probability an eligible (NAKable) dispatch is force-NAKed. */
    double forceNak = 0.0;

    /**
     * Deliberate bug hook: a dropped transmission is *not* retransmitted
     * — the message is lost. Exists to prove the checker/watchdog catch
     * unrecovered loss; never enabled by a legitimate plan.
     */
    bool injectDropWithoutRetransmit = false;

    bool
    anyNetwork() const
    {
        return netDrop > 0.0 || netDup > 0.0 || netDelay > 0.0 ||
               netReorder > 0.0;
    }

    bool anyMem() const { return memFlipSingle > 0.0 || memFlipDouble > 0.0; }
    bool anyProtocol() const { return forceNak > 0.0; }

    bool
    enabled() const
    {
        return anyNetwork() || anyMem() || anyProtocol();
    }

    /**
     * Every spec key after seed, in canonical order, as f(key, member,
     * unit): member points into FaultPlan, and an integer member holds
     * its spec value times unit (tickPerNs for the ns keys). parse(),
     * toString() and the machine config hash walk this one list.
     */
    template <class F>
    static void
    keys(F &&f)
    {
        f("drop", &FaultPlan::netDrop, Tick{1});
        f("dup", &FaultPlan::netDup, Tick{1});
        f("delay", &FaultPlan::netDelay, Tick{1});
        f("reorder", &FaultPlan::netReorder, Tick{1});
        f("delaymax", &FaultPlan::netDelayMax, tickPerNs);
        f("timeout", &FaultPlan::retransmitTimeout, tickPerNs);
        f("maxretx", &FaultPlan::maxRetransmits, Tick{1});
        f("flip", &FaultPlan::memFlipSingle, Tick{1});
        f("flip2", &FaultPlan::memFlipDouble, Tick{1});
        f("nak", &FaultPlan::forceNak, Tick{1});
        f("droploss", &FaultPlan::injectDropWithoutRetransmit, Tick{1});
    }

    /**
     * Canonical spec string (parse(toString()) round-trips), e.g.
     * "seed=42,drop=0.01,dup=0.01,delay=0.02,flip=0.001,nak=0.02".
     * Emitted into bench --json records so a chaotic run is
     * reproducible from the JSON alone. Keys at their default are
     * left out, except seed, which always leads.
     */
    std::string toString() const;

    /**
     * Parse a comma-separated key=value spec. Keys: seed, drop, dup,
     * delay, delaymax (ns), reorder, timeout (ns), maxretx, flip,
     * flip2, nak, droploss. Rates (drop, dup, delay, reorder, flip,
     * flip2, nak) must be finite and in [0, 1]; the rest are decimal
     * digits only, in range (droploss is 0 or 1). False (with *err
     * set) on unknown keys or malformed values.
     */
    static bool parse(const std::string &spec, FaultPlan &out,
                      std::string *err = nullptr);
};

// ---- NAK retry policy ---------------------------------------------------

/** How a requester paces NAK-and-retry resends. */
enum class RetryKind : std::uint8_t
{
    Fixed,     ///< base + jitter, every retry (historical behaviour).
    Immediate, ///< resend at once (stress the home's dispatch path).
    ExpBackoff ///< base doubling per retry up to cap, plus jitter.
};

struct RetryPolicyConfig
{
    RetryKind kind = RetryKind::Fixed;
    Tick base = 100 * tickPerNs; ///< First-retry delay and jitter range.
    Tick cap = 6400 * tickPerNs; ///< ExpBackoff ceiling (before jitter).
    /** Retry count at which the starvation detector flags (0 = off). */
    unsigned starvationRetries = 32;
};

/**
 * Backoff before the @p k-th resend (k >= 1) under @p cfg, drawing
 * jitter from @p rng. Fixed consumes exactly one draw of
 * rng.below(base) — bit-identical to the historical nakBackoff path;
 * Immediate consumes none.
 */
Tick retryBackoff(const RetryPolicyConfig &cfg, unsigned k, Rng &rng);

/**
 * Parse "immediate" | "fixed[:baseNs]" | "exp[:baseNs[:capNs]]" into
 * @p out (starvationRetries is left untouched). The ns counts are
 * positive decimal digits whose tick value fits a Tick; anything else
 * in the string is an error.
 */
bool parseRetryPolicy(const std::string &spec, RetryPolicyConfig &out,
                      std::string *err = nullptr);

/** Canonical form accepted by parseRetryPolicy. */
std::string retryPolicyToString(const RetryPolicyConfig &cfg);

// ---- Injector -----------------------------------------------------------

class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, unsigned nodes);

    const FaultPlan &plan() const { return plan_; }

    unsigned nodes() const { return static_cast<unsigned>(slices_.size()); }

    /**
     * Per-node decision streams, counters and trace buffer. Slices are
     * cache-line aligned so concurrent shards never false-share; each
     * slice is only ever touched by the shard that owns node @p n
     * (enforced by the mailbox routing in sim/shard.hpp, proven by the
     * TSan CI job).
     */
    struct alignas(64) Slice
    {
        explicit Slice(std::uint64_t net_seed = 1, std::uint64_t mem_seed = 1,
                       std::uint64_t proto_seed = 1)
            : netRng(net_seed), memRng(mem_seed), protoRng(proto_seed)
        {
        }

        Rng netRng;   ///< Link drop/dup/jitter/reorder decisions.
        Rng memRng;   ///< SDRAM ECC flip decisions.
        Rng protoRng; ///< Forced-NAK decisions.

        Counter netDrops;        ///< Corrupted transmissions (= retransmits).
        Counter netDups;         ///< Duplicated deliveries injected.
        Counter netDupsFiltered; ///< Duplicates discarded at landing.
        Counter netDelays;       ///< Traversals given extra jitter.
        Counter netReorders;     ///< Landing-buffer swaps performed.
        Counter netLost;         ///< injectDropWithoutRetransmit casualties.
        Counter eccCorrected;    ///< Single-bit flips corrected.
        Counter eccDetected;     ///< Double-bit flips detected.
        Counter eccScrubs;       ///< Demand scrubs (one per corrected flip).
        Counter eccRefetches;    ///< Refetch reads serving detected flips.
        Counter naksForced;      ///< Dispatches turned into RplNak.

        trace::TraceBuffer *trace = nullptr;
    };

    Slice &slice(unsigned n) { return slices_[n]; }
    const Slice &slice(unsigned n) const { return slices_[n]; }

    // ---- Network hooks (per-node stream, consulted in the event order
    //      of the shard owning @p node) ---------------------------------

    /**
     * Number of corrupted transmissions before this traversal succeeds
     * (0 = clean). Each costs one retransmitTimeout of latency and one
     * extra serialisation of link occupancy.
     */
    unsigned linkRetransmits(unsigned node);

    /** Should this delivery be duplicated (dup filtered by seq at RX)? */
    bool linkDuplicate(unsigned node);

    /** Extra jitter for this traversal (0 = none). */
    Tick linkExtraDelay(unsigned node);

    /** Swap this landing with its (cross-source) predecessor? */
    bool landingReorder(unsigned node);

    // ---- SDRAM hook (per-node stream) --------------------------------

    enum class Ecc : std::uint8_t
    {
        None,      ///< Clean read.
        Corrected, ///< Single-bit flip: SEC corrected + scrubbed.
        Detected   ///< Double-bit flip: DED detected; refetch needed.
    };

    Ecc sdramRead(NodeId node);

    // ---- Protocol hook (per-node stream) ------------------------------

    /** Force-NAK this eligible dispatch? */
    bool forceNak(NodeId node);

    // ---- Telemetry ----------------------------------------------------

    /** Per-node fault trace buffer (Category::Fault); may be null. */
    void setTrace(unsigned node, trace::TraceBuffer *buf)
    {
        slices_[node].trace = buf;
    }

    trace::TraceBuffer *trace(unsigned node) { return slices_[node].trace; }

    // ---- Aggregate counters (sum over nodes, for reporting) -----------

    std::uint64_t netDrops() const { return sum(&Slice::netDrops); }
    std::uint64_t netDups() const { return sum(&Slice::netDups); }
    std::uint64_t netDupsFiltered() const
    {
        return sum(&Slice::netDupsFiltered);
    }
    std::uint64_t netDelays() const { return sum(&Slice::netDelays); }
    std::uint64_t netReorders() const { return sum(&Slice::netReorders); }
    std::uint64_t netLost() const { return sum(&Slice::netLost); }
    std::uint64_t eccCorrected() const { return sum(&Slice::eccCorrected); }
    std::uint64_t eccDetected() const { return sum(&Slice::eccDetected); }
    std::uint64_t eccScrubs() const { return sum(&Slice::eccScrubs); }
    std::uint64_t eccRefetches() const { return sum(&Slice::eccRefetches); }
    std::uint64_t naksForced() const { return sum(&Slice::naksForced); }

    /** Injected faults, all classes (nonzero proves the plan fired). */
    std::uint64_t
    injectedTotal() const
    {
        return netDrops() + netDups() + netDelays() + netReorders() +
               eccCorrected() + eccDetected() + naksForced();
    }

    /** Successful recoveries (drops retransmitted, dups filtered, ...). */
    std::uint64_t
    recoveredTotal() const
    {
        return (netDrops() - netLost()) + netDupsFiltered() +
               eccCorrected() + eccRefetches();
    }

    // ---- Snapshot support ---------------------------------------------
    //
    // The plan itself is part of the machine configuration (and thus the
    // config hash); only the RNG stream positions and the counters are
    // dynamic state. The injector schedules no events of its own.

    template <class Ar> void io(Ar &ar);

  private:
    std::uint64_t
    sum(Counter Slice::*member) const
    {
        std::uint64_t total = 0;
        for (const Slice &s : slices_)
            total += (s.*member).value();
        return total;
    }

    FaultPlan plan_;
    std::vector<Slice> slices_;
};

} // namespace smtp::fault

#endif // SMTP_FAULT_FAULT_HPP
