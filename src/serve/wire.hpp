/**
 * @file
 * smtpd wire protocol: framing and socket plumbing.
 *
 * A connection is a UNIX-domain stream socket carrying frames in both
 * directions. One frame = a 4-byte little-endian unsigned length
 * followed by exactly that many bytes of UTF-8 JSON. The length counts
 * the payload only and is capped at kMaxFrame (16 MiB): a prefix
 * beyond the cap is a protocol error and the connection is dropped —
 * the daemon never allocates attacker-chosen sizes. Version lives in
 * the JSON (every reply carries "proto": kProtoVersion), not the
 * framing, so old clients get a readable error instead of a hangup.
 *
 * Everything here is blocking-socket code used by clients and tests;
 * the daemon's poll loop keeps per-connection read buffers and uses
 * FrameSplitter to lift frames out of them incrementally.
 */

#ifndef SMTP_SERVE_WIRE_HPP
#define SMTP_SERVE_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace smtp::serve
{

/** Protocol version carried in every reply. */
constexpr unsigned kProtoVersion = 2;

/** Frame payload cap; a larger length prefix is a protocol error. */
constexpr std::uint32_t kMaxFrame = 16u * 1024 * 1024;

/**
 * Encode one frame (length prefix + payload) into a byte string.
 * Callers that keep their own output buffers (the daemon's nonblocking
 * connections) append this and flush on POLLOUT. Payloads over
 * kMaxFrame return an empty string — never a torn frame.
 */
std::string encodeFrame(std::string_view payload);

/**
 * Write one frame (length prefix + payload), retrying short writes and
 * EINTR. False with *err on any socket error, including a peer that
 * disconnected mid-stream (EPIPE is reported via MSG_NOSIGNAL, never
 * raised as SIGPIPE — a vanishing client must not kill the daemon).
 */
bool writeFrame(int fd, std::string_view payload,
                std::string *err = nullptr);

/**
 * Blocking read of one whole frame. Returns 1 on a frame, 0 on clean
 * EOF at a frame boundary, -1 (with *err) on a malformed prefix,
 * mid-frame EOF, or socket error.
 */
int readFrame(int fd, std::string &payload, std::string *err = nullptr);

/**
 * Incremental frame reassembly for a poll loop: feed() raw bytes as
 * they arrive, then next() lifts complete frames out. Oversized
 * length prefixes poison the splitter (error() non-empty, next()
 * false forever) — the owner must drop the connection.
 */
class FrameSplitter
{
  public:
    void feed(const char *data, std::size_t n);
    bool next(std::string &payload);
    const std::string &error() const { return err_; }
    /** Bytes buffered but not yet lifted (diagnostics). */
    std::size_t pendingBytes() const { return buf_.size(); }

  private:
    std::string buf_;
    std::string err_;
};

/**
 * Connect to a daemon socket. Returns the fd, or -1 with *err. The fd
 * has SIGPIPE suppressed per-send (MSG_NOSIGNAL) by writeFrame.
 */
int connectSocket(const std::string &path, std::string *err = nullptr);

/**
 * Bind + listen on a fresh UNIX socket at @p path, unlinking any
 * stale socket file first. Returns the listening fd or -1 with *err.
 */
int listenSocket(const std::string &path, std::string *err = nullptr);

} // namespace smtp::serve

#endif // SMTP_SERVE_WIRE_HPP
