/**
 * @file
 * Cooperative cancellation and deadlines for long-running pipelines.
 *
 * A 10k-qubit hierarchical design + route runs for tens of seconds and a
 * fault campaign sweeps hundreds of cells; a service (or a CI job with a
 * wall-clock budget) needs to bound such a run and abort it *cleanly* --
 * no leaked arenas, a structured error, a flight-recorder dump -- rather
 * than SIGKILL it. The cancel layer follows the ambient zero-cost idiom
 * of fault/trace/flight: instrumented loops call cancel::poll() at their
 * natural boundaries, and when nothing armed a token the call costs one
 * relaxed atomic load and branch, so clean runs stay bit-identical to a
 * build without the layer.
 *
 * Semantics:
 *  - armDeadline(seconds) starts a deadline from now; requestCancel()
 *    cancels immediately (tests use it as a deterministic trigger).
 *  - poll(where) throws cancel::Cancelled once the token tripped. An
 *    armed poll reads the steady clock once; the maze-router inner
 *    loops stride their own polls (every 4096 expansions), so the read
 *    amortizes to noise. Once the deadline passed the tripped flag
 *    latches and every later poll is one relaxed load plus throw.
 *  - Arm/disarm only at quiescent points (no pipeline work in flight),
 *    the same contract as fault::enable().
 *
 * The exception deliberately does NOT derive from the ConfigError/
 * InternalError ladder: cancellation is neither a bad input nor a bug,
 * and the degradation machinery must rethrow it instead of swallowing it
 * into a retry. Robust entry points catch it at the top and surface a
 * DesignError with code Cancelled/DeadlineExceeded.
 */

#ifndef YOUTIAO_COMMON_CANCEL_HPP
#define YOUTIAO_COMMON_CANCEL_HPP

#include <atomic>
#include <exception>
#include <string>

namespace youtiao::cancel {

namespace detail {
extern std::atomic<bool> g_armed;
/** Slow path of poll(): deadline check / tripped-flag throw. */
void pollSlow(const char *where);
} // namespace detail

/** Why a run was cancelled. */
enum class Reason
{
    Cancelled,        ///< explicit requestCancel()
    DeadlineExceeded, ///< armDeadline() budget ran out
};

/** Stable lower-case name ("cancelled", "deadline_exceeded"). */
const char *reasonName(Reason reason);

/** Thrown by poll() when the active token tripped. */
class Cancelled : public std::exception
{
  public:
    Cancelled(Reason reason, std::string where);

    Reason reason() const { return reason_; }
    /** The poll site that observed the cancellation. */
    const std::string &where() const { return where_; }
    const char *what() const noexcept override { return what_.c_str(); }

  private:
    Reason reason_;
    std::string where_;
    std::string what_;
};

/** True while a deadline or cancel request is armed. The single relaxed
 *  load every poll pays when the layer is idle. */
inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Cancellation check. @p where names the poll site ("hier.tile",
 * "astar") for the structured error and flight dump. No-op unless a
 * token is armed; throws Cancelled once it tripped.
 */
inline void
poll(const char *where)
{
    if (!armed())
        return;
    detail::pollSlow(where);
}

/** Arm a deadline @p seconds from now (> 0). Replaces any previous
 *  token and clears a pending trip. */
void armDeadline(double seconds);

/** Trip the token immediately with Reason::Cancelled; @p why is kept
 *  for diagnostics. Arms the layer if nothing was armed yet, so a run
 *  that never set a deadline can still be cancelled. */
void requestCancel(const char *why);

/** Disarm everything and clear any pending trip. */
void disarm();

/** True once the active token tripped (poll() would throw). */
bool tripped();

/** RAII arm/disarm for tests and scoped requests. */
class ScopedDeadline
{
  public:
    explicit ScopedDeadline(double seconds) { armDeadline(seconds); }
    ~ScopedDeadline() { disarm(); }
    ScopedDeadline(const ScopedDeadline &) = delete;
    ScopedDeadline &operator=(const ScopedDeadline &) = delete;
};

} // namespace youtiao::cancel

#endif // YOUTIAO_COMMON_CANCEL_HPP
