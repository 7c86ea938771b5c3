/**
 * @file
 * SDRAM model (paper Table 3): 80 ns access time, 3.2 GB/s bandwidth,
 * 16-entry request queue. One device per node serves application line
 * fetches, directory reads/writes, protocol-bypass traffic and
 * writebacks; contention between those streams is part of what the
 * machine-model comparison measures.
 */

#ifndef SMTP_MEM_SDRAM_HPP
#define SMTP_MEM_SDRAM_HPP

#include <deque>
#include <functional>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace smtp
{

struct SdramParams
{
    Tick accessLatency = 80 * tickPerNs;
    double bytesPerTick = 0.0032;   ///< 3.2 GB/s = 3.2 bytes/ns.
    unsigned queueDepth = 16;
};

class Sdram
{
  public:
    Sdram(EventQueue &eq, const SdramParams &params)
        : eq_(&eq), params_(params)
    {
    }

    /**
     * Issue an access. The completion callback fires when the data is
     * available (reads) or accepted (writes). The queue is modelled as
     * elastic: requests beyond queueDepth stack up and simply see the
     * accumulated service delay, which is how a full memory queue
     * manifests to the rest of the node.
     */
    void
    access(Addr addr, unsigned bytes, bool write,
           EventQueue::Callback done = {})
    {
        (void)addr;
        ++(write ? writes : reads);
        Tick now = eq_->curTick();
        Tick start = std::max(now, deviceFree_);
        auto occupancy = static_cast<Tick>(static_cast<double>(bytes) /
                                           params_.bytesPerTick);
        deviceFree_ = start + occupancy;
        busyTicks += deviceFree_ - start;
        queueDelay.sample(static_cast<double>(start - now));
        SMTP_TRACE_EVENT(trace_, now, trace::EventId::SdramAccess,
                         trace::packSdram(bytes, write, start - now));
        Tick ready = start + params_.accessLatency;
        if (faults_ != nullptr && !write) {
            switch (faults_->sdramRead(node_)) {
              case fault::FaultInjector::Ecc::None:
                break;
              case fault::FaultInjector::Ecc::Corrected:
                // Single-bit flip: SEC corrects in the datapath (no
                // timing cost); the corrected word is scrubbed back.
                SMTP_TRACE_EVENT(faults_->trace(node_), now,
                                 trace::EventId::FaultEccCorrect,
                                 trace::packEcc(node_, false));
                break;
              case fault::FaultInjector::Ecc::Detected: {
                // Double-bit flip: DED discards the word and the
                // transient is refetched — one extra device access.
                ++faults_->slice(node_).eccRefetches;
                Tick start2 = std::max(ready, deviceFree_);
                deviceFree_ = start2 + occupancy;
                busyTicks += occupancy;
                ready = start2 + params_.accessLatency;
                SMTP_TRACE_EVENT(faults_->trace(node_), now,
                                 trace::EventId::FaultEccDetect,
                                 trace::packEcc(node_, true));
                break;
              }
            }
        }
        if (done)
            eq_->schedule(ready, std::move(done));
    }

    /** Ticks until the device drains (for quiescence checks). */
    Tick deviceFreeAt() const { return deviceFree_; }

    void setTrace(trace::TraceBuffer *buf) { trace_ = buf; }

    /** Attach the fault injector's ECC model (timing-only flips). */
    void
    setFaultInjector(fault::FaultInjector *fi, NodeId node)
    {
        faults_ = fi;
        node_ = node;
    }

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(deviceFree_);
        ar.obj(reads, writes, busyTicks, queueDelay);
    }

    Counter reads, writes;
    Counter busyTicks;
    Distribution queueDelay;

  private:
    EventQueue *eq_;
    SdramParams params_;
    Tick deviceFree_ = 0;
    trace::TraceBuffer *trace_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    NodeId node_ = 0;
};

} // namespace smtp

#endif // SMTP_MEM_SDRAM_HPP
