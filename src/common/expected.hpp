/**
 * @file
 * Recoverable-error plumbing for the design pipeline.
 *
 * The throwing helpers in common/error.hpp stay the right tool for
 * programming mistakes (bad arguments, broken invariants); DesignError +
 * Expected cover the other class of failure -- a pipeline stage that
 * cannot produce a result for this *input* (an infeasible frequency
 * allocation, an unroutable net list, a chip degraded past usefulness).
 * Those failures are data, not exceptions: callers inspect the stage and
 * context, try a degraded configuration, or surface a structured report,
 * but never crash.
 */

#ifndef YOUTIAO_COMMON_EXPECTED_HPP
#define YOUTIAO_COMMON_EXPECTED_HPP

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/flight.hpp"

namespace youtiao {

/** Pipeline stage a recoverable failure originated from. */
enum class DesignStage
{
    ChipLoad,
    ModelFit,
    Partition,
    FdmGrouping,
    FrequencyAllocation,
    TdmGrouping,
    ReadoutPlanning,
    Routing,
    Transpile,
    Validation,
};

/** Stable lower-case name of a stage ("frequency_allocation", ...). */
const char *designStageName(DesignStage stage);

/**
 * Failure class of a DesignError. Failed covers every infeasible-input
 * failure; Cancelled/DeadlineExceeded mark a cooperative abort
 * (common/cancel.hpp), which tools map to their own exit code (3) so
 * schedulers can tell "this input cannot be designed" from "the budget
 * ran out".
 */
enum class DesignErrorCode
{
    Failed,
    Cancelled,
    DeadlineExceeded,
};

/** Stable lower-case name ("failed", "cancelled", ...). */
const char *designErrorCodeName(DesignErrorCode code);

/**
 * A typed, recoverable design failure: which stage gave up, why, and any
 * key=value context worth reporting (offending qubit, attempt budget,
 * net id). Rendered into CLI error output and campaign JSON.
 */
struct DesignError
{
    DesignStage stage = DesignStage::Validation;
    std::string message;
    DesignErrorCode code = DesignErrorCode::Failed;
    /** "key=value" detail pairs, in the order they were attached. */
    std::vector<std::string> context;

    DesignError() = default;
    DesignError(DesignStage error_stage, std::string msg,
                DesignErrorCode error_code = DesignErrorCode::Failed)
        : stage(error_stage), message(std::move(msg)), code(error_code)
    {
        // Post-mortem breadcrumb: when a tool armed the flight recorder
        // (flight::install), every recoverable failure snapshots the
        // rings so even a run the degradation ladder rescues leaves its
        // failure trail on disk. No-op (one relaxed load) otherwise.
        if (flight::enabled())
            flight::noteDesignError(designStageName(stage),
                                    message.c_str());
    }

    /** True for the cooperative-abort codes. */
    bool
    isCancellation() const
    {
        return code != DesignErrorCode::Failed;
    }

    DesignError &
    with(const std::string &key, const std::string &value)
    {
        context.push_back(key + "=" + value);
        return *this;
    }

    DesignError &
    with(const std::string &key, std::size_t value)
    {
        return with(key, std::to_string(value));
    }

    /** "stage: message (key=value, ...)" single-line rendering. */
    std::string
    toString() const
    {
        std::string out = std::string(designStageName(stage)) + ": " +
                          message;
        if (!context.empty()) {
            out += " (";
            for (std::size_t i = 0; i < context.size(); ++i) {
                if (i > 0)
                    out += ", ";
                out += context[i];
            }
            out += ")";
        }
        return out;
    }
};

/** A cooperative abort surfaced as a structured error: which reason,
 *  and which poll site observed it (context "where=<site>"). */
[[nodiscard]] inline DesignError
cancelledError(const cancel::Cancelled &e)
{
    const DesignErrorCode code =
        e.reason() == cancel::Reason::DeadlineExceeded
            ? DesignErrorCode::DeadlineExceeded
            : DesignErrorCode::Cancelled;
    return DesignError(DesignStage::Validation, e.what(), code)
        .with("where", e.where());
}

/**
 * Raise @p error the way the throwing entry points report failure: the
 * cancellation codes become cancel::Cancelled again (same reason, same
 * poll site when the context names one), every other failure a
 * ConfigError carrying error.toString().
 */
[[noreturn]] inline void
throwDesignError(const DesignError &error)
{
    if (error.isCancellation()) {
        std::string where = designStageName(error.stage);
        for (const std::string &kv : error.context) {
            if (kv.rfind("where=", 0) == 0)
                where = kv.substr(6);
        }
        throw cancel::Cancelled(error.code ==
                                        DesignErrorCode::DeadlineExceeded
                                    ? cancel::Reason::DeadlineExceeded
                                    : cancel::Reason::Cancelled,
                                where);
    }
    throw ConfigError(error.toString());
}

inline const char *
designErrorCodeName(DesignErrorCode code)
{
    switch (code) {
      case DesignErrorCode::Failed:
        return "failed";
      case DesignErrorCode::Cancelled:
        return "cancelled";
      case DesignErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "unknown";
}

inline const char *
designStageName(DesignStage stage)
{
    switch (stage) {
      case DesignStage::ChipLoad:
        return "chip_load";
      case DesignStage::ModelFit:
        return "model_fit";
      case DesignStage::Partition:
        return "partition";
      case DesignStage::FdmGrouping:
        return "fdm_grouping";
      case DesignStage::FrequencyAllocation:
        return "frequency_allocation";
      case DesignStage::TdmGrouping:
        return "tdm_grouping";
      case DesignStage::ReadoutPlanning:
        return "readout_planning";
      case DesignStage::Routing:
        return "routing";
      case DesignStage::Transpile:
        return "transpile";
      case DesignStage::Validation:
        return "validation";
    }
    return "unknown";
}

/**
 * Minimal result-or-error holder (std::expected arrives in C++23; this
 * covers the subset the pipeline needs). Implicitly constructible from
 * either alternative; value() on an error throws InternalError, so
 * unchecked access fails loudly instead of reading garbage. Discarding
 * one is a compile warning: a dropped result is a dropped error.
 */
template <typename T, typename E>
class [[nodiscard]] Expected
{
  public:
    Expected(T value)
        : storage_(std::in_place_index<0>, std::move(value))
    {}

    Expected(E error)
        : storage_(std::in_place_index<1>, std::move(error))
    {}

    bool hasValue() const { return storage_.index() == 0; }
    explicit operator bool() const { return hasValue(); }

    T &
    value()
    {
        requireInternal(hasValue(),
                        "Expected::value() called on an error");
        return std::get<0>(storage_);
    }

    const T &
    value() const
    {
        requireInternal(hasValue(),
                        "Expected::value() called on an error");
        return std::get<0>(storage_);
    }

    E &
    error()
    {
        requireInternal(!hasValue(),
                        "Expected::error() called on a value");
        return std::get<1>(storage_);
    }

    const E &
    error() const
    {
        requireInternal(!hasValue(),
                        "Expected::error() called on a value");
        return std::get<1>(storage_);
    }

    T
    valueOr(T fallback) const
    {
        return hasValue() ? std::get<0>(storage_) : std::move(fallback);
    }

  private:
    std::variant<T, E> storage_;
};

/** The value of @p result, or throwDesignError() on its error: the
 *  bridge from a structured entry point to its throwing twin. */
template <typename T>
T
valueOrThrow(Expected<T, DesignError> result)
{
    if (!result.hasValue())
        throwDesignError(result.error());
    return std::move(result.value());
}

} // namespace youtiao

#endif // YOUTIAO_COMMON_EXPECTED_HPP
