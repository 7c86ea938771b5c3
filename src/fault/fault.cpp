#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace smtp::fault
{

namespace
{

void
appendField(std::string &s, const char *key, double v)
{
    if (v <= 0.0)
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",%s=%g", key, v);
    s += buf;
}

void
appendTickNs(std::string &s, const char *key, Tick v, Tick dflt)
{
    if (v == dflt)
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",%s=%llu", key,
                  static_cast<unsigned long long>(v / tickPerNs));
    s += buf;
}

} // namespace

std::string
FaultPlan::toString() const
{
    char head[64];
    std::snprintf(head, sizeof(head), "seed=%llu",
                  static_cast<unsigned long long>(seed));
    std::string s = head;
    appendField(s, "drop", netDrop);
    appendField(s, "dup", netDup);
    appendField(s, "delay", netDelay);
    appendField(s, "reorder", netReorder);
    FaultPlan dflt;
    appendTickNs(s, "delaymax", netDelayMax, dflt.netDelayMax);
    appendTickNs(s, "timeout", retransmitTimeout, dflt.retransmitTimeout);
    if (maxRetransmits != dflt.maxRetransmits)
        s += ",maxretx=" + std::to_string(maxRetransmits);
    appendField(s, "flip", memFlipSingle);
    appendField(s, "flip2", memFlipDouble);
    appendField(s, "nak", forceNak);
    if (injectDropWithoutRetransmit)
        s += ",droploss=1";
    return s;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan &out, std::string *err)
{
    FaultPlan plan;
    auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string item = spec.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        pos = comma == std::string::npos ? spec.size() : comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + item + "'");
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        char *end = nullptr;
        double d = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0')
            return fail("bad value '" + val + "' for key '" + key + "'");
        if (key == "seed") {
            plan.seed = static_cast<std::uint64_t>(d);
        } else if (key == "drop") {
            plan.netDrop = d;
        } else if (key == "dup") {
            plan.netDup = d;
        } else if (key == "delay") {
            plan.netDelay = d;
        } else if (key == "reorder") {
            plan.netReorder = d;
        } else if (key == "delaymax") {
            plan.netDelayMax = static_cast<Tick>(d) * tickPerNs;
        } else if (key == "timeout") {
            plan.retransmitTimeout = static_cast<Tick>(d) * tickPerNs;
        } else if (key == "maxretx") {
            plan.maxRetransmits = static_cast<unsigned>(d);
        } else if (key == "flip") {
            plan.memFlipSingle = d;
        } else if (key == "flip2") {
            plan.memFlipDouble = d;
        } else if (key == "nak") {
            plan.forceNak = d;
        } else if (key == "droploss") {
            plan.injectDropWithoutRetransmit = d != 0.0;
        } else {
            return fail("unknown fault-plan key '" + key + "'");
        }
    }
    out = plan;
    return true;
}

// ---- Retry policy -------------------------------------------------------

Tick
retryBackoff(const RetryPolicyConfig &cfg, unsigned k, Rng &rng)
{
    switch (cfg.kind) {
      case RetryKind::Immediate:
        return 0;
      case RetryKind::Fixed:
        return cfg.base + rng.below(cfg.base);
      case RetryKind::ExpBackoff: {
        unsigned shift = k > 0 ? k - 1 : 0;
        // base << shift saturates at cap well before shift overflows.
        Tick delay = shift >= 40 || (cfg.base << shift) > cfg.cap
                         ? cfg.cap
                         : cfg.base << shift;
        return delay + rng.below(cfg.base);
      }
    }
    return cfg.base;
}

bool
parseRetryPolicy(const std::string &spec, RetryPolicyConfig &out,
                 std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    std::string kind = spec;
    std::string rest;
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        kind = spec.substr(0, colon);
        rest = spec.substr(colon + 1);
    }
    RetryPolicyConfig cfg = out;
    if (kind == "immediate")
        cfg.kind = RetryKind::Immediate;
    else if (kind == "fixed")
        cfg.kind = RetryKind::Fixed;
    else if (kind == "exp")
        cfg.kind = RetryKind::ExpBackoff;
    else
        return fail("unknown retry policy '" + kind + "'");
    if (!rest.empty()) {
        std::size_t c2 = rest.find(':');
        std::string base_s = rest.substr(0, c2);
        std::uint64_t base_ns = std::strtoull(base_s.c_str(), nullptr, 10);
        if (base_ns == 0)
            return fail("retry base must be a positive ns count");
        cfg.base = static_cast<Tick>(base_ns) * tickPerNs;
        if (c2 != std::string::npos) {
            std::uint64_t cap_ns =
                std::strtoull(rest.c_str() + c2 + 1, nullptr, 10);
            if (cap_ns == 0)
                return fail("retry cap must be a positive ns count");
            cfg.cap = static_cast<Tick>(cap_ns) * tickPerNs;
        }
    }
    out = cfg;
    return true;
}

std::string
retryPolicyToString(const RetryPolicyConfig &cfg)
{
    const char *kind = cfg.kind == RetryKind::Immediate ? "immediate"
                       : cfg.kind == RetryKind::Fixed   ? "fixed"
                                                        : "exp";
    char buf[96];
    if (cfg.kind == RetryKind::ExpBackoff) {
        std::snprintf(buf, sizeof(buf), "%s:%llu:%llu", kind,
                      static_cast<unsigned long long>(cfg.base / tickPerNs),
                      static_cast<unsigned long long>(cfg.cap / tickPerNs));
    } else if (cfg.kind == RetryKind::Fixed) {
        std::snprintf(buf, sizeof(buf), "%s:%llu", kind,
                      static_cast<unsigned long long>(cfg.base / tickPerNs));
    } else {
        std::snprintf(buf, sizeof(buf), "%s", kind);
    }
    return buf;
}

// ---- Injector -----------------------------------------------------------

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned nodes)
    : plan_(plan)
{
    SMTP_ASSERT(nodes >= 1, "fault injector needs at least one node");
    slices_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        // Node 0's network stream matches the pre-sharding global
        // stream (seed * golden-ratio + 1), so single-node harnesses
        // that pinned decision sequences keep their expectations.
        slices_.emplace_back(
            (plan.seed + n * 0x51ed270bULL) * 0x9e3779b97f4a7c15ULL + 1,
            plan.seed + 0x1000 + n * 7919,
            plan.seed + 0x2000 + n * 104729);
    }
}

unsigned
FaultInjector::linkRetransmits(unsigned node)
{
    if (plan_.netDrop <= 0.0)
        return 0;
    Slice &s = slices_[node];
    unsigned k = 0;
    while (k < plan_.maxRetransmits && s.netRng.chance(plan_.netDrop))
        ++k;
    s.netDrops += k;
    return k;
}

bool
FaultInjector::linkDuplicate(unsigned node)
{
    Slice &s = slices_[node];
    if (plan_.netDup <= 0.0 || !s.netRng.chance(plan_.netDup))
        return false;
    ++s.netDups;
    return true;
}

Tick
FaultInjector::linkExtraDelay(unsigned node)
{
    Slice &s = slices_[node];
    if (plan_.netDelay <= 0.0 || !s.netRng.chance(plan_.netDelay))
        return 0;
    ++s.netDelays;
    return 1 + s.netRng.below(std::max<Tick>(plan_.netDelayMax, 1));
}

bool
FaultInjector::landingReorder(unsigned node)
{
    Slice &s = slices_[node];
    if (plan_.netReorder <= 0.0 || !s.netRng.chance(plan_.netReorder))
        return false;
    return true;
}

FaultInjector::Ecc
FaultInjector::sdramRead(NodeId node)
{
    SMTP_ASSERT(node < slices_.size(), "sdram fault for unknown node");
    Slice &s = slices_[node];
    if (plan_.memFlipSingle <= 0.0 && plan_.memFlipDouble <= 0.0)
        return Ecc::None;
    double u = s.memRng.uniform();
    if (u < plan_.memFlipDouble) {
        ++s.eccDetected;
        return Ecc::Detected;
    }
    if (u < plan_.memFlipDouble + plan_.memFlipSingle) {
        ++s.eccCorrected;
        ++s.eccScrubs;
        return Ecc::Corrected;
    }
    return Ecc::None;
}

bool
FaultInjector::forceNak(NodeId node)
{
    SMTP_ASSERT(node < slices_.size(), "forced NAK for unknown node");
    Slice &s = slices_[node];
    if (plan_.forceNak <= 0.0 || !s.protoRng.chance(plan_.forceNak))
        return false;
    ++s.naksForced;
    return true;
}

// ---- Snapshot support ---------------------------------------------------

template <class Ar>
void
FaultInjector::io(Ar &ar)
{
    ar.fixed(slices_,
             "corrupt snapshot: fault injector slice count mismatch",
             [](Ar &a, Slice &s) {
                 a.obj(s.netRng, s.memRng, s.protoRng, s.netDrops,
                       s.netDups, s.netDupsFiltered, s.netDelays,
                       s.netReorders, s.netLost, s.eccCorrected,
                       s.eccDetected, s.eccScrubs, s.eccRefetches,
                       s.naksForced);
             });
}

template void FaultInjector::io(snap::Ser &);
template void FaultInjector::io(snap::Des &);

} // namespace smtp::fault
