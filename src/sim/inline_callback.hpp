/**
 * @file
 * Small-buffer-optimized callback for the event kernel.
 *
 * Every simulated cycle schedules a handful of callbacks; with
 * std::function each one whose capture exceeded the library's tiny SBO
 * (two pointers in libstdc++) cost a heap allocation on the hottest
 * path of the whole simulator. InlineCallback reserves enough inline
 * storage (64 bytes) that every scheduler in the tree — lambdas
 * capturing `this` plus a few scalars, a whole proto::Message, or a
 * forwarded callback — stays allocation-free. Oversized or
 * throwing-move captures transparently fall back to the heap, so the
 * type is a drop-in replacement; `storesInline<F>` lets hot call sites
 * static_assert that they stay on the fast path.
 *
 * Copyable (like std::function) because the cache hierarchy fans one
 * completion callback out to several waiter lists.
 */

#ifndef SMTP_SIM_INLINE_CALLBACK_HPP
#define SMTP_SIM_INLINE_CALLBACK_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace smtp::snap
{
class Ser;
}

namespace smtp
{

namespace detail
{
template <typename F, typename = void>
struct IsSnapCallback : std::false_type
{
};

template <typename F>
struct IsSnapCallback<F, std::void_t<decltype(F::kSnapId)>>
    : std::true_type
{
};
} // namespace detail

class InlineCallback
{
  public:
    /**
     * Inline capture budget; sized for the largest hot-path functor
     * (a pointer plus a whole proto::Message plus a scalar).
     */
    static constexpr std::size_t inlineBytes = 64;

    /** Does a callable of type @p F avoid the heap fallback? */
    template <typename F>
    static constexpr bool storesInline =
        sizeof(F) <= inlineBytes &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    /**
     * Is @p F a named snapshot-serializable functor (kSnapId + io(),
     * snap/event_codec.hpp)? Such callbacks survive Machine::save and
     * restore; plain lambdas do not and make a containing snapshot fail
     * loudly.
     */
    template <typename F>
    static constexpr bool isSnappable = detail::IsSnapCallback<F>::value;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback(const InlineCallback &other)
    {
        if (other.ops_) {
            other.ops_->clone(buf_, other.buf_);
            ops_ = other.ops_;
        }
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(const InlineCallback &other)
    {
        if (this != &other) {
            InlineCallback tmp(other);
            destroy();
            moveFrom(tmp);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        destroy();
        ops_ = nullptr;
        return *this;
    }

    ~InlineCallback() { destroy(); }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Snapshot kind id; 0 for null or non-snappable callbacks. */
    std::uint32_t
    snapId() const noexcept
    {
        return ops_ ? ops_->typeId : 0;
    }

    /** Encode the payload of a snappable callback (snapId() != 0). */
    void
    encode(snap::Ser &out) const
    {
        ops_->encode(buf_, out);
    }

  private:
    struct Ops
    {
        void (*invoke)(unsigned char *buf);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(unsigned char *dst, unsigned char *src);
        void (*clone)(unsigned char *dst, const unsigned char *src);
        void (*destroy)(unsigned char *buf);
        /** Snapshot support; typeId 0 / encode null when absent. */
        std::uint32_t typeId;
        void (*encode)(const unsigned char *buf, snap::Ser &out);
    };

    template <typename Fn>
    static Fn &
    inlineRef(unsigned char *buf)
    {
        return *std::launder(reinterpret_cast<Fn *>(buf));
    }

    template <typename Fn>
    static constexpr std::uint32_t
    typeIdOf()
    {
        if constexpr (isSnappable<Fn>)
            return Fn::kSnapId;
        else
            return 0;
    }

    template <typename Fn, bool Inline>
    static constexpr auto
    encodeFnOf()
    {
        if constexpr (isSnappable<Fn>) {
            // Saving only reads through io(), so the payload may be
            // cast mutable here (as snap::Ser::obj does).
            return [](const unsigned char *buf, snap::Ser &out) {
                if constexpr (Inline) {
                    const_cast<Fn *>(
                        std::launder(reinterpret_cast<const Fn *>(buf)))
                        ->io(out);
                } else {
                    (*reinterpret_cast<Fn *const *>(buf))->io(out);
                }
            };
        } else {
            return static_cast<void (*)(const unsigned char *,
                                        snap::Ser &)>(nullptr);
        }
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](unsigned char *buf) { inlineRef<Fn>(buf)(); },
        [](unsigned char *dst, unsigned char *src) {
            ::new (static_cast<void *>(dst))
                Fn(std::move(inlineRef<Fn>(src)));
            inlineRef<Fn>(src).~Fn();
        },
        [](unsigned char *dst, const unsigned char *src) {
            ::new (static_cast<void *>(dst)) Fn(*std::launder(
                reinterpret_cast<const Fn *>(src)));
        },
        [](unsigned char *buf) { inlineRef<Fn>(buf).~Fn(); },
        typeIdOf<Fn>(),
        encodeFnOf<Fn, true>(),
    };

    template <typename Fn>
    static Fn *&
    heapPtr(unsigned char *buf)
    {
        return *reinterpret_cast<Fn **>(buf);
    }

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](unsigned char *buf) { (*heapPtr<Fn>(buf))(); },
        [](unsigned char *dst, unsigned char *src) {
            heapPtr<Fn>(dst) = heapPtr<Fn>(src);
        },
        [](unsigned char *dst, const unsigned char *src) {
            *reinterpret_cast<Fn **>(dst) =
                new Fn(**reinterpret_cast<Fn *const *>(src));
        },
        [](unsigned char *buf) { delete heapPtr<Fn>(buf); },
        typeIdOf<Fn>(),
        encodeFnOf<Fn, false>(),
    };

    void
    moveFrom(InlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_)
            ops_->destroy(buf_);
    }

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace smtp

#endif // SMTP_SIM_INLINE_CALLBACK_HPP
