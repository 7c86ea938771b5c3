#include "serve/proto.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "common/bits.hpp"

namespace smtp::serve
{

namespace
{

bool
failParse(std::string *err, const std::string &msg)
{
    if (err != nullptr)
        *err = msg;
    return false;
}

/** 2^53: every integer up to here is exact in a double. */
constexpr double kMaxExactDouble = 9007199254740992.0;

/**
 * Fetch a non-negative integral member. Numbers arrive as doubles;
 * anything fractional, negative, or beyond 2^53 is rejected rather
 * than truncated.
 */
bool
getUint(const JsonValue &obj, const char *key, std::uint64_t &out,
        std::string *err)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return true; // Absent: keep the default.
    if (!v->isNumber())
        return failParse(err, std::string("field '") + key +
                                  "' must be a number");
    double d = v->number();
    if (d < 0 || d != std::floor(d) || d > kMaxExactDouble)
        return failParse(err, std::string("field '") + key +
                                  "' must be a non-negative integer");
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
getBoolStrict(const JsonValue &obj, const char *key, bool &out,
              std::string *err)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isBool())
        return failParse(err, std::string("field '") + key +
                                  "' must be a boolean");
    out = v->boolean();
    return true;
}

bool
getStringStrict(const JsonValue &obj, const char *key, std::string &out,
                std::string *err)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isString())
        return failParse(err, std::string("field '") + key +
                                  "' must be a string");
    out = v->str();
    return true;
}

/**
 * @p m as a number; unless @p real, also whole, in [lo, hi] and exact
 * in a double. False when absent, mistyped or out of range.
 */
bool
readNumber(const JsonValue *m, bool real, double lo, double hi,
           double &out)
{
    if (m == nullptr || !m->isNumber())
        return false;
    double d = m->number();
    if (!real && (d != std::floor(d) || d < lo ||
                  d > std::min(hi, kMaxExactDouble)))
        return false;
    out = d;
    return true;
}

} // namespace

std::string
jsonFailureRecord(const RunConfig &cfg, const std::string &reason,
                  const std::string &detail, unsigned attempts)
{
    JsonValue v = JsonValue::makeObject();
    v.set("app", JsonValue::makeString(cfg.app));
    v.set("model",
          JsonValue::makeString(std::string(modelName(cfg.model))));
    v.set("nodes",
          JsonValue::makeNumber(static_cast<double>(cfg.nodes)));
    v.set("ways", JsonValue::makeNumber(static_cast<double>(cfg.ways)));
    v.set("failed", JsonValue::makeBool(true));
    v.set("error", JsonValue::makeString(reason));
    v.set("detail", JsonValue::makeString(detail));
    v.set("attempts",
          JsonValue::makeNumber(static_cast<double>(attempts)));
    v.set("exec", JsonValue::makeString(cfg.exec.toString()));
    return v.dump();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseHex64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    out = 0;
    for (char c : s) {
        out <<= 4;
        if (c >= '0' && c <= '9')
            out |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            out |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            out |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return false;
    }
    return true;
}

JsonValue
resultToJson(const RunResult &r)
{
    JsonValue v = JsonValue::makeObject();
    auto put = [&v](const char *key, const auto &x, RunResult::Group,
                    RunResult::Fmt) {
        if constexpr (std::is_same_v<std::decay_t<decltype(x)>, bool>)
            v.set(key, JsonValue::makeBool(x));
        else
            v.set(key, JsonValue::makeNumber(static_cast<double>(x)));
    };
    const_cast<RunResult &>(r).fields(put);
    return v;
}

RunResult
resultFromJson(const JsonValue &v, bool *complete)
{
    RunResult r;
    bool all = true;
    auto get = [&](const char *key, auto &x, RunResult::Group,
                   RunResult::Fmt) {
        using T = std::decay_t<decltype(x)>;
        const JsonValue *m = v.find(key);
        bool ok = false;
        if constexpr (std::is_same_v<T, bool>) {
            ok = m != nullptr && m->isBool();
            if (ok)
                x = m->boolean();
        } else {
            using L = std::numeric_limits<T>;
            double d = 0.0;
            ok = readNumber(m, std::is_floating_point_v<T>,
                            static_cast<double>(L::lowest()),
                            static_cast<double>(L::max()), d);
            if (ok)
                x = static_cast<T>(d);
        }
        all = all && ok;
    };
    r.fields(get);
    if (complete != nullptr)
        *complete = all;
    return r;
}

JsonValue
cellToJson(const RunConfig &cfg)
{
    JsonValue cell = JsonValue::makeObject();
    cell.set("model",
             JsonValue::makeString(std::string(modelName(cfg.model))));
    // Non-default protocols travel explicitly; absence means bitvector
    // so pre-variant clients and daemons interoperate unchanged.
    if (cfg.protocol != proto::ProtocolKind::Bitvector) {
        cell.set("protocol",
                 JsonValue::makeString(
                     std::string(proto::protocolName(cfg.protocol))));
    }
    cell.set("nodes", JsonValue::makeNumber(cfg.nodes));
    cell.set("ways", JsonValue::makeNumber(cfg.ways));
    cell.set("app", JsonValue::makeString(cfg.app));
    cell.set("scale", JsonValue::makeNumber(cfg.scale));
    cell.set("cpu_mhz",
             JsonValue::makeNumber(static_cast<double>(cfg.cpuFreqMHz)));
    cell.set("las", JsonValue::makeBool(cfg.lookAheadScheduling));
    cell.set("bitops", JsonValue::makeBool(cfg.bitAssistOps));
    cell.set("pcache", JsonValue::makeBool(cfg.perfectProtocolCaches));
    cell.set("dir_cache_divisor",
             JsonValue::makeNumber(cfg.dirCacheDivisor));
    cell.set("exec", JsonValue::makeString(cfg.exec.toString()));
    cell.set("check",
             JsonValue::makeString(checkLevelName(cfg.checkLevel)));
    if (cfg.sample.active()) {
        cell.set("sample",
                 JsonValue::makeString(
                     std::to_string(cfg.sample.warmup) + ":" +
                     std::to_string(cfg.sample.interval) + ":" +
                     std::to_string(cfg.sample.count)));
    }
    if (cfg.faults.enabled())
        cell.set("faults", JsonValue::makeString(cfg.faults.toString()));
    cell.set("retry", JsonValue::makeString(
                          fault::retryPolicyToString(cfg.retryPolicy)));
    if (!cfg.traceStem.empty())
        cell.set("trace", JsonValue::makeBool(true));
    if (cfg.traceExec)
        cell.set("trace_exec", JsonValue::makeBool(true));
    return cell;
}

bool
cellFromJson(const JsonValue &cell, RunConfig &out, std::string *err)
{
    if (!cell.isObject())
        return failParse(err, "cell must be a JSON object");
    static const char *const kKnown[] = {
        "model", "protocol", "nodes", "ways", "app", "scale", "cpu_mhz",
        "las", "bitops", "pcache", "dir_cache_divisor", "exec", "check",
        "sample", "faults", "retry", "trace", "trace_exec",
        "ckpt_dir", // Accepted and ignored: the daemon owns the farm.
    };
    for (const auto &[key, value] : cell.members()) {
        bool known = false;
        for (const char *k : kKnown)
            known = known || key == k;
        if (!known)
            return failParse(err, "unknown cell field '" + key + "'");
    }

    out = RunConfig{};
    std::string model;
    if (!getStringStrict(cell, "model", model, err))
        return false;
    if (!model.empty() && !modelFromName(model, out.model))
        return failParse(err, "unknown machine model '" + model + "'");
    std::string protocol;
    if (!getStringStrict(cell, "protocol", protocol, err))
        return false;
    if (!proto::protocolFromName(protocol, out.protocol)) {
        return failParse(err, "unknown protocol '" + protocol +
                                  "' (expected " +
                                  std::string(proto::protocolNameList()) +
                                  ")");
    }

    std::uint64_t u;
    u = out.nodes;
    if (!getUint(cell, "nodes", u, err))
        return false;
    if (u == 0 || u > 4096)
        return failParse(err, "nodes out of range");
    out.nodes = static_cast<unsigned>(u);
    u = out.ways;
    if (!getUint(cell, "ways", u, err))
        return false;
    if (u == 0 || u > 64)
        return failParse(err, "ways out of range");
    out.ways = static_cast<unsigned>(u);

    if (!getStringStrict(cell, "app", out.app, err))
        return false;
    const JsonValue *scale = cell.find("scale");
    if (scale != nullptr) {
        if (!scale->isNumber() || scale->number() <= 0)
            return failParse(err, "scale must be a positive number");
        out.scale = scale->number();
    }
    u = out.cpuFreqMHz;
    if (!getUint(cell, "cpu_mhz", u, err))
        return false;
    if (u == 0)
        return failParse(err, "cpu_mhz must be positive");
    out.cpuFreqMHz = u;
    if (!getBoolStrict(cell, "las", out.lookAheadScheduling, err) ||
        !getBoolStrict(cell, "bitops", out.bitAssistOps, err) ||
        !getBoolStrict(cell, "pcache", out.perfectProtocolCaches, err) ||
        !getBoolStrict(cell, "trace_exec", out.traceExec, err))
        return false;
    u = out.dirCacheDivisor;
    if (!getUint(cell, "dir_cache_divisor", u, err))
        return false;
    if (u == 0 || u > 65536 || !isPow2(u))
        return failParse(err, "dir_cache_divisor must be a power of two "
                              "in 1..65536");
    out.dirCacheDivisor = static_cast<unsigned>(u);

    std::string spec;
    spec.clear();
    if (!getStringStrict(cell, "exec", spec, err))
        return false;
    if (!spec.empty() && !ExecParams::parse(spec, out.exec, err))
        return false;
    spec.clear();
    if (!getStringStrict(cell, "check", spec, err))
        return false;
    if (!spec.empty() && !parseCheckLevel(spec, out.checkLevel, err))
        return false;
    spec.clear();
    if (!getStringStrict(cell, "sample", spec, err))
        return false;
    if (!spec.empty() && !SampleSpec::parse(spec, out.sample, err))
        return false;
    spec.clear();
    if (!getStringStrict(cell, "faults", spec, err))
        return false;
    if (!spec.empty() && !fault::FaultPlan::parse(spec, out.faults, err))
        return false;
    spec.clear();
    if (!getStringStrict(cell, "retry", spec, err))
        return false;
    if (!spec.empty() &&
        !fault::parseRetryPolicy(spec, out.retryPolicy, err))
        return false;

    // "trace" is a request flag: the daemon assigns the stem under its
    // own state dir, so the client never names server-side paths.
    bool wantTrace = false;
    if (!getBoolStrict(cell, "trace", wantTrace, err))
        return false;
    if (wantTrace)
        out.traceStem = "?"; // Placeholder; server substitutes.
    return true;
}

} // namespace smtp::serve
