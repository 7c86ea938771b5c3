#include "serve/proto.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/parse.hpp"

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

// One strict text form per RunConfig field type: parseText takes the
// whole string or fails naming it, and toText is its inverse. The CLI
// flags parse argv text; the wire parses a string member's text, or a
// number's or bool's JSON spelling, so both share every check.

bool
parseText(const std::string &s, MachineModel &x, std::string *err)
{
    return modelFromName(s, x) ||
           failParse(err, "unknown machine model '" + s + "'");
}

bool
parseText(const std::string &s, proto::ProtocolKind &x, std::string *err)
{
    return proto::protocolFromName(s, x) ||
           failParse(err, "unknown protocol '" + s + "' (expected " +
                              std::string(proto::protocolNameList()) +
                              ")");
}

bool
parseText(const std::string &s, std::string &x, std::string *)
{
    x = s;
    return true;
}

bool
parseText(const std::string &s, bool &x, std::string *err)
{
    if (s != "true" && s != "false")
        return failParse(err, "expected true|false, got '" + s + "'");
    x = s == "true";
    return true;
}

template <class T>
std::enable_if_t<std::is_unsigned_v<T>, bool>
parseText(const std::string &s, T &x, std::string *err)
{
    return parseDigits(s, x) ||
           failParse(err, "'" + s + "' is not a non-negative integer");
}

/** The one real-valued field, scale: finite and positive. */
bool
parseText(const std::string &s, double &x, std::string *err)
{
    char *end = nullptr;
    double d = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !(d > 0.0) ||
        !std::isfinite(d))
        return failParse(err, "'" + s + "' is not a positive number");
    x = d;
    return true;
}

bool
parseText(const std::string &s, ExecParams &x, std::string *err)
{
    return ExecParams::parse(s, x, err);
}

bool
parseText(const std::string &s, check::CheckLevel &x, std::string *err)
{
    return parseCheckLevel(s, x, err);
}

bool
parseText(const std::string &s, SampleSpec &x, std::string *err)
{
    return SampleSpec::parse(s, x, err);
}

bool
parseText(const std::string &s, fault::FaultPlan &x, std::string *err)
{
    return fault::FaultPlan::parse(s, x, err);
}

bool
parseText(const std::string &s, fault::RetryPolicyConfig &x,
          std::string *err)
{
    return fault::parseRetryPolicy(s, x, err);
}

std::string toText(MachineModel x) { return std::string(modelName(x)); }
std::string toText(const std::string &x) { return x; }
std::string toText(const ExecParams &x) { return x.toString(); }
std::string toText(check::CheckLevel x) { return checkLevelName(x); }
std::string toText(const fault::FaultPlan &x) { return x.toString(); }

std::string
toText(proto::ProtocolKind x)
{
    return std::string(proto::protocolName(x));
}

std::string
toText(const SampleSpec &x)
{
    return std::to_string(x.warmup) + ":" + std::to_string(x.interval) +
           ":" + std::to_string(x.count);
}

std::string
toText(const fault::RetryPolicyConfig &x)
{
    return fault::retryPolicyToString(x);
}

/** A field's wire form: a JSON bool, number, or its text as a string. */
template <class T>
JsonValue
toWire(const T &x)
{
    if constexpr (std::is_same_v<T, bool>)
        return JsonValue::makeBool(x);
    else if constexpr (std::is_arithmetic_v<T>)
        return JsonValue::makeNumber(static_cast<double>(x));
    else
        return JsonValue::makeString(toText(x));
}

/** Read a wire member into @p x: toWire's JSON type, then parseText. */
template <class T>
bool
fromWire(const char *key, const JsonValue &v, T &x, std::string *err)
{
    constexpr bool isBool = std::is_same_v<T, bool>;
    constexpr bool isNum = std::is_arithmetic_v<T> && !isBool;
    std::string why;
    if (isBool ? !v.isBool() : isNum ? !v.isNumber() : !v.isString()) {
        why = isBool ? "must be a boolean"
                     : isNum ? "must be a number" : "must be a string";
    } else if (parseText(v.isString() ? v.str() : v.dump(), x, &why)) {
        return true;
    }
    return failParse(err, std::string("field '") + key + "': " + why);
}

/**
 * @p cfg's wire members; an IfSet field only where its wire form
 * differs from @p dflt's (every field when @p dflt is null).
 */
JsonValue
wireFields(const RunConfig &cfg, const JsonValue *dflt)
{
    JsonValue cell = JsonValue::makeObject();
    auto put = [&](const char *key, const auto &x, const char *,
                   RunConfig::Wire w) {
        JsonValue v = toWire(x);
        if (w == RunConfig::Wire::InOnly ||
            (w == RunConfig::Wire::IfSet && dflt != nullptr &&
             v.dump() == dflt->find(key)->dump()))
            return;
        cell.set(key, std::move(v));
    };
    const_cast<RunConfig &>(cfg).fields(put);
    return cell;
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
    static const JsonValue dflt = wireFields(RunConfig{}, nullptr);
    return wireFields(cfg, &dflt);
}

bool
cellFromJson(const JsonValue &cell, RunConfig &out, std::string *err)
{
    if (!cell.isObject())
        return failParse(err, "cell must be a JSON object");
    out = RunConfig{};
    for (const auto &member : cell.members()) {
        bool known = false;
        auto match = [&](const char *key, auto &, const char *,
                         RunConfig::Wire) {
            known = known || member.first == key;
        };
        out.fields(match);
        if (!known)
            return failParse(err,
                             "unknown cell field '" + member.first + "'");
    }
    bool ok = true;
    auto get = [&](const char *key, auto &x, const char *,
                   RunConfig::Wire) {
        const JsonValue *v = cell.find(key);
        ok = ok && (v == nullptr || fromWire(key, *v, x, err));
    };
    out.fields(get);
    return ok && checkMachineParams(paramsFor(out), err);
}

bool
parseCellFlag(const std::string &arg, RunConfig &cfg, std::string *err)
{
    std::size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    std::string why;
    bool found = false;
    bool ok = false;
    auto take = [&](const char *, auto &x, const char *flag,
                    RunConfig::Wire) {
        if (flag != nullptr && eq != std::string::npos && name == flag) {
            found = true;
            ok = parseText(arg.substr(eq + 1), x, &why);
        }
    };
    cfg.fields(take);
    if (found && !ok)
        failParse(err, name + ": " + why);
    return found && ok;
}

} // namespace smtp::serve
