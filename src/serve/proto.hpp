/**
 * @file
 * smtpd message vocabulary: converting sweep cells (serve::RunConfig)
 * to and from the JSON carried in wire frames.
 *
 * The reader is strict — every unknown member of a cell object is a
 * hard error, not a warning. A misspelled "scael" that silently fell
 * back to a default would produce a *valid-looking* record for the
 * wrong experiment, which is the worst failure mode a results daemon
 * can have. cellToJson()/cellFromJson() round-trip exactly, so a
 * client-side RunConfig and the daemon-side one it becomes have equal
 * cellKey() — the dedup identity survives the wire.
 *
 * Both, and the front ends' sweep-wide cell flags (parseCellFlag),
 * walk RunConfig::fields(), with one strict text parser per field
 * type, so a value the wire refuses is refused on the command line
 * too. Sizes are checked by the machine's own checkMachineParams().
 */

#ifndef SMTP_SERVE_PROTO_HPP
#define SMTP_SERVE_PROTO_HPP

#include <string>

#include "serve/json.hpp"
#include "serve/runner.hpp"

namespace smtp::serve
{

/** Serialize one sweep cell for a submit request. */
JsonValue cellToJson(const RunConfig &cfg);

/**
 * Structured form of a RunResult for a "cell" reply frame and the
 * result cache: every RunResult::fields() member under its key.
 * Numbers are re-serialized with %.17g (JsonValue::dump), which
 * round-trips every double exactly — the structured fields agree
 * bit-for-bit with the verbatim record that travels alongside them.
 */
JsonValue resultToJson(const RunResult &r);

/**
 * Inverse of resultToJson. Tolerant, so peers from before a field
 * existed interoperate: an absent or mistyped member keeps its
 * default. *complete (when given) says whether every field was read.
 */
RunResult resultFromJson(const JsonValue &v, bool *complete = nullptr);

/**
 * Parse one cell object. False with *err on any unknown member, wrong
 * type, unparsable value, or sizes checkMachineParams() refuses.
 * @p out is default-initialized first, so omitted members get the
 * RunConfig defaults.
 */
bool cellFromJson(const JsonValue &cell, RunConfig &out,
                  std::string *err = nullptr);

/**
 * Offer one argv word to the sweep-wide cell flags (the RunConfig
 * fields with a flag, e.g. --scale=F, --dcache-div=N). True when
 * @p arg set one in @p cfg; false with *err set ("FLAG: why") on a
 * bad value, or with *err untouched when @p arg names no such flag.
 * Sizes are left to checkMachineParams() on the finished cells.
 */
bool parseCellFlag(const std::string &arg, RunConfig &cfg,
                   std::string *err);

/**
 * The structured error record for a quarantined (or shed) cell: the
 * JSON-Lines line a waiter receives in place of jsonRecord() output.
 * It names the cell (app/model/sizes) so a results file that mixes
 * successes and failures stays self-describing, carries
 * "failed":true so no tooling can mistake it for metrics, and records
 * why ("error": crash/deadline/error/shed, plus detail) and how hard
 * the daemon tried ("attempts").
 */
std::string jsonFailureRecord(const RunConfig &cfg,
                              const std::string &reason,
                              const std::string &detail,
                              unsigned attempts);

/** 16-hex-digit lower-case form used for ids and cell keys on the wire. */
std::string hex64(std::uint64_t v);

/** Parse hex64 output (also accepts shorter hex strings). */
bool parseHex64(const std::string &s, std::uint64_t &out);

} // namespace smtp::serve

#endif // SMTP_SERVE_PROTO_HPP
