/**
 * @file
 * Deterministic snapshot primitives: the byte-level Serializer /
 * Deserializer pair every component encodes itself with, through one
 * io() body that both drive.
 *
 * Encoding rules (docs/checkpointing.md):
 *  - all integers little-endian, fixed width;
 *  - doubles as raw IEEE-754 bit patterns (bit-identical restore even
 *    for the +/-inf sentinels the stats keep);
 *  - containers length-prefixed with a u64 count;
 *  - associative containers written in sorted key order so a snapshot
 *    of a given machine state is itself deterministic (snap_tool diff
 *    compares files, not just semantics).
 *
 * The Deserializer never trusts its input: every read is bounds-checked
 * and failure latches a sticky error instead of invoking UB, so a
 * truncated or corrupted snapshot is reported, not executed.
 */

#ifndef SMTP_SNAP_SNAP_HPP
#define SMTP_SNAP_SNAP_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace smtp
{
class InlineCallback;
} // namespace smtp

namespace smtp::snap
{

class EventCodec;

/**
 * An event owner with a node id (CPU, cache, controller, protocol
 * engine) goes on the wire as that id; one without (the network) is
 * machine-wide and costs no bytes.
 */
template <typename T>
concept PerNodeOwner = requires(const T &t) { t.nodeId(); };

/*
 * Ser and Des share one field-op vocabulary, so a component describes
 * its state once, in `template <class Ar> void io(Ar &ar)`, and the
 * same body both saves (Ser) and restores (Des) it:
 *
 *   ar.u8/u16/u32/u64(field)   fixed width; the field may be any
 *                              integer, bool or enum type
 *   ar.u8(field, max, why)     u8 whose restored value must be <= max
 *   ar.i8(field)               sign-extended on restore
 *   ar.f64 / ar.b / ar.str     raw IEEE-754 bits / bool as u8 / u32-
 *                              length-prefixed bytes
 *   ar.seq(c, minBytes, fn)    u64 count, then fn(ar, element) each;
 *                              Des rebuilds c and bounds the count by
 *                              minBytes per element (Des::count)
 *   ar.seq(c, minBytes, fn, max, why)
 *                              same, but a restored count above max
 *                              fails with why
 *   ar.fixed(c, why, fn)       u64 count that must equal c.size() on
 *                              restore (construction-time geometry)
 *   ar.sortedMap(m, minBytes, fn)
 *                              hash map in ascending key order: u64
 *                              key, then fn(ar, key, value)
 *   ar.wordMap(m)              sparse u64 -> u64 map
 *   ar.obj(x, ...)             nested values, each through x.io(ar)
 *   ar.cb(callback)            event id + payload (snap/event_codec.hpp)
 *   ar.owner(ptr, why)         the component an event acts on: a u16
 *                              node id for a PerNodeOwner, nothing for
 *                              a machine-wide one; Des resolves it
 *                              through the codec or fails with why
 *
 * Restore-only validation lives in `if constexpr (Ar::loading)` blocks
 * inside io(); ok() is constantly true on a Ser so guards read the same
 * in both directions. Des::checkNode(id, why) fails unless id names a
 * node of the machine being restored (the codec's node count).
 */

class Ser
{
  public:
    static constexpr bool loading = false;
    static constexpr bool ok() { return true; }

    template <typename T>
    void
    u8(const T &v)
    {
        put(static_cast<std::uint8_t>(v));
    }

    template <typename T, typename M>
    void
    u8(const T &v, M, const char *)
    {
        u8(v);
    }

    template <typename T>
    void
    u16(const T &v)
    {
        put(static_cast<std::uint16_t>(v));
    }

    template <typename T>
    void
    u32(const T &v)
    {
        put(static_cast<std::uint32_t>(v));
    }

    template <typename T>
    void
    u64(const T &v)
    {
        put(static_cast<std::uint64_t>(v));
    }

    template <typename T>
    void
    i8(const T &v)
    {
        u8(static_cast<std::int8_t>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Raw IEEE-754 bits: restores inf/nan sentinels exactly. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(std::string_view s)
    {
        u32(s.size());
        raw(s.data(), s.size());
    }

    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    template <typename C, typename Fn>
    void
    seq(C &c, std::size_t, Fn &&fn)
    {
        u64(c.size());
        for (auto &e : c)
            fn(*this, e);
    }

    template <typename C, typename Fn>
    void
    seq(C &c, std::size_t min_elem_bytes, Fn &&fn, std::uint64_t,
        const char *)
    {
        seq(c, min_elem_bytes, fn);
    }

    template <typename C, typename Fn>
    void
    fixed(C &c, const char *, Fn &&fn)
    {
        seq(c, 0, fn);
    }

    template <typename M, typename Fn>
    void
    sortedMap(M &m, std::size_t, Fn &&fn)
    {
        std::vector<typename M::key_type> keys;
        keys.reserve(m.size());
        for (const auto &kv : m)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        u64(keys.size());
        for (const auto &k : keys) {
            u64(k);
            fn(*this, k, m.at(k));
        }
    }

    /** Sparse u64->u64 map in sorted key order (FuncMem, ProtocolRam). */
    template <typename M>
    void
    wordMap(M &m)
    {
        sortedMap(m, 16, [](Ser &s, auto, auto v) { s.u64(v); });
    }

    /**
     * Nested values through their io(). Saving only reads what io()
     * hands it, so a const value is encoded through the same body.
     */
    template <typename... T>
    void
    obj(const T &...v)
    {
        (const_cast<T &>(v).io(*this), ...);
    }

    /** Defined in snap/event_codec.hpp. */
    void cb(const InlineCallback &c);

    template <typename T>
    void
    owner(T *p, const char * = nullptr)
    {
        if constexpr (PerNodeOwner<T>)
            u16(p->nodeId());
    }

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    /** Patch a previously written u64 at @p pos (section lengths). */
    void
    patchU64(std::size_t pos, std::uint64_t v)
    {
        std::memcpy(buf_.data() + pos, &v, sizeof(v));
    }

  private:
    template <typename W>
    void
    put(W v)
    {
        raw(&v, sizeof(v));
    }

    std::vector<std::uint8_t> buf_;
};

class Des
{
  public:
    static constexpr bool loading = true;

    Des(const std::uint8_t *data, std::size_t size)
        : p_(data), size_(size)
    {
    }

    explicit Des(const std::vector<std::uint8_t> &v)
        : Des(v.data(), v.size())
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return err_; }
    std::size_t pos() const { return pos_; }
    std::size_t size() const { return size_; }
    std::size_t remaining() const { return size_ - pos_; }

    /** The registry cb() decodes callbacks with. */
    void setCodec(const EventCodec *codec) { codec_ = codec; }

    void
    fail(std::string why)
    {
        if (ok_) {
            ok_ = false;
            err_ = std::move(why);
        }
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    bool b() { return u8() != 0; }

    template <typename T>
    void
    u8(T &v)
    {
        v = static_cast<T>(u8());
    }

    /** u8 whose value must be <= @p max; fails with @p why otherwise. */
    template <typename T, typename M>
    void
    u8(T &v, M max, const char *why)
    {
        std::uint8_t x = u8();
        if (x > static_cast<std::uint8_t>(max))
            fail(why);
        else
            v = static_cast<T>(x);
    }

    template <typename T>
    void
    u16(T &v)
    {
        v = static_cast<T>(u16());
    }

    template <typename T>
    void
    u32(T &v)
    {
        v = static_cast<T>(u32());
    }

    template <typename T>
    void
    u64(T &v)
    {
        v = static_cast<T>(u64());
    }

    template <typename T>
    void
    i8(T &v)
    {
        v = static_cast<T>(static_cast<std::int8_t>(u8()));
    }

    template <typename T>
    void
    b(T &v)
    {
        v = static_cast<T>(b());
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void f64(double &v) { v = f64(); }

    std::string
    str()
    {
        std::uint32_t n = u32();
        if (!checkAvail(n, "string"))
            return {};
        std::string s(reinterpret_cast<const char *>(p_ + pos_), n);
        pos_ += n;
        return s;
    }

    void str(std::string &v) { v = str(); }

    void
    skip(std::size_t n)
    {
        if (checkAvail(n, "skipped bytes"))
            pos_ += n;
    }

    void
    read(void *out, std::size_t n)
    {
        if (!checkAvail(n, "scalar")) {
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, p_ + pos_, n);
        pos_ += n;
    }

    /**
     * Read a u64 element count, sanity-bounded: a corrupted count must
     * not drive a multi-gigabyte allocation. @p min_elem_bytes is the
     * smallest possible encoding of one element.
     */
    std::uint64_t
    count(std::size_t min_elem_bytes = 1)
    {
        std::uint64_t n = u64();
        if (ok_ && min_elem_bytes > 0 &&
            n > remaining() / min_elem_bytes) {
            fail("element count exceeds remaining snapshot bytes");
            return 0;
        }
        return n;
    }

    template <typename C, typename Fn>
    void
    seq(C &c, std::size_t min_elem_bytes, Fn &&fn)
    {
        fill(c, count(min_elem_bytes), fn);
    }

    template <typename C, typename Fn>
    void
    seq(C &c, std::size_t min_elem_bytes, Fn &&fn, std::uint64_t max,
        const char *why)
    {
        std::uint64_t n = count(min_elem_bytes);
        if (n > max) {
            fail(why);
            n = 0;
        }
        fill(c, n, fn);
    }

    template <typename C, typename Fn>
    void
    fixed(C &c, const char *why, Fn &&fn)
    {
        if (u64() != c.size()) {
            fail(why);
            return;
        }
        for (auto &e : c)
            fn(*this, e);
    }

    template <typename M, typename Fn>
    void
    sortedMap(M &m, std::size_t min_elem_bytes, Fn &&fn)
    {
        m.clear();
        std::uint64_t n = count(min_elem_bytes);
        m.reserve(n);
        for (std::uint64_t i = 0; ok_ && i < n; ++i) {
            typename M::key_type k = static_cast<typename M::key_type>(u64());
            fn(*this, k, m[k]);
        }
    }

    template <typename M>
    void
    wordMap(M &m)
    {
        sortedMap(m, 16, [](Des &d, auto, auto &v) { d.u64(v); });
    }

    template <typename... T>
    void
    obj(T &...v)
    {
        (v.io(*this), ...);
    }

    /**
     * Deepest callback nesting cb() decodes. The simulator nests at
     * most two deep (a bypass-bus crossing carrying the fill it
     * completes); the bound keeps a crafted chain from recursing the
     * decoder off the stack.
     */
    static constexpr unsigned maxCallbackNesting = 4;

    /** Defined in snap/event_codec.hpp. */
    void cb(InlineCallback &c);

    /** Defined in snap/event_codec.hpp. */
    void checkNode(std::uint32_t node, const char *why);

    /** Defined in snap/event_codec.hpp. */
    template <typename T>
    void owner(T *&p,
               const char *why = "snapshot event names an unknown owner");

  private:
    template <typename W>
    W
    get()
    {
        W v = 0;
        read(&v, sizeof(v));
        return v;
    }

    /** Rebuild @p c from @p n elements, each through @p fn. */
    template <typename C, typename Fn>
    void
    fill(C &c, std::uint64_t n, Fn &fn)
    {
        using T = std::remove_cvref_t<decltype(*c.begin())>;
        c.clear();
        for (std::uint64_t i = 0; ok_ && i < n; ++i) {
            T e{};
            fn(*this, e);
            if constexpr (requires { c.push_back(std::move(e)); })
                c.push_back(std::move(e));
            else
                c.push(std::move(e));
        }
    }

    bool
    checkAvail(std::size_t n, const char *what)
    {
        if (!ok_)
            return false;
        if (n > size_ - pos_) {
            fail(std::string("truncated snapshot: reading ") + what +
                 " past end of section");
            return false;
        }
        return true;
    }

    const std::uint8_t *p_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string err_;
    const EventCodec *codec_ = nullptr;
    unsigned cbDepth_ = 0;
};

/** A component whose complete mutable state round-trips through Ser/Des. */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;
    virtual void saveState(Ser &out) const = 0;
    virtual void restoreState(Des &in) = 0;
};

/** FNV-1a based config hasher for the snapshot-compatibility key. */
class Hasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    mix(std::string_view s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (char c : s) {
            h_ ^= static_cast<std::uint8_t>(c);
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    mixF(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace smtp::snap

#endif // SMTP_SNAP_SNAP_HPP
