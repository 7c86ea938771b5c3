#include "fault/fault.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace smtp::fault
{

namespace
{

/**
 * One spec value into @p v: a rate must be finite and in [0, 1]; any
 * other value is decimal digits only, stored times @p unit, and must
 * fit T.
 */
template <class T>
bool
parseValue(const std::string &s, Tick unit, T &v)
{
    if constexpr (std::is_floating_point_v<T>) {
        char *end = nullptr;
        double d = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || *end != '\0' || !std::isfinite(d) ||
            d < 0.0 || d > 1.0)
            return false;
        v = d;
    } else {
        std::uint64_t n = 0;
        if (!parseDigits(s, n, std::numeric_limits<T>::max() / unit))
            return false;
        v = static_cast<T>(n * unit);
    }
    return true;
}

} // namespace

std::string
FaultPlan::toString() const
{
    std::string s = "seed=" + std::to_string(seed);
    const FaultPlan dflt;
    keys([&](const char *key, auto m, Tick unit) {
        if (this->*m == dflt.*m)
            return;
        s += ',';
        s += key;
        s += '=';
        if constexpr (std::is_same_v<decltype(m), double FaultPlan::*>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%g", this->*m);
            s += buf;
        } else {
            s += std::to_string(static_cast<std::uint64_t>(this->*m) / unit);
        }
    });
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
        bool known = key == "seed";
        bool ok = known && parseValue(val, 1, plan.seed);
        keys([&](const char *k, auto m, Tick unit) {
            if (key == k) {
                known = true;
                ok = parseValue(val, unit, plan.*m);
            }
        });
        if (!known)
            return fail("unknown fault-plan key '" + key + "'");
        if (!ok)
            return fail("bad value '" + val + "' for key '" + key + "'");
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
    if (colon != std::string::npos) {
        std::size_t c2 = rest.find(':');
        if (!parseValue(rest.substr(0, c2), tickPerNs, cfg.base) ||
            cfg.base == 0)
            return fail("retry base must be a positive ns count");
        if (c2 != std::string::npos &&
            (!parseValue(rest.substr(c2 + 1), tickPerNs, cfg.cap) ||
             cfg.cap == 0))
            return fail("retry cap must be a positive ns count");
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
