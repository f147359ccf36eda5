/**
 * @file
 * Lightweight Result<T> error-propagation type.
 *
 * The model front end (DSL parser, description validation) reports
 * user-input errors as values rather than exceptions, in the spirit of
 * gem5's fatal()-for-user-errors rule: a malformed description is the
 * user's fault and must surface as a diagnosable message, not a crash.
 */
#ifndef VDRAM_UTIL_RESULT_H
#define VDRAM_UTIL_RESULT_H

#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace vdram {

/** An error message with optional source location (for DSL diagnostics). */
struct Error {
    std::string message;
    /** 1-based line in the input file; 0 when not applicable. */
    int line = 0;
    /** 1-based column in the input line; 0 when not applicable. */
    int column = 0;
    /** Input file name; empty when not applicable. */
    std::string file = {};
    /** Stable diagnostic code ("E-TECH-RANGE", ...); empty when unset. */
    std::string code = {};

    /**
     * Render "file:line:col: message" with every absent location part
     * omitted: "file:line: message", "line N: message" or "message".
     * A trailing " [CODE]" is appended when a diagnostic code is set.
     */
    std::string toString() const
    {
        std::string out;
        if (!file.empty()) {
            out = file;
            if (line > 0) {
                out += ':' + std::to_string(line);
                if (column > 0)
                    out += ':' + std::to_string(column);
            }
            out += ": ";
        } else if (line > 0) {
            out = "line " + std::to_string(line);
            if (column > 0)
                out += ", col " + std::to_string(column);
            out += ": ";
        }
        out += message;
        if (!code.empty())
            out += " [" + code + "]";
        return out;
    }
};

/**
 * Holds either a value of type T or an Error.
 *
 * Usage:
 * @code
 *   Result<double> r = parseValue("165nm");
 *   if (!r.ok()) return r.error();
 *   double v = r.value();
 * @endcode
 */
template <typename T>
class Result {
  public:
    /* implicit */ Result(T value) : data_(std::move(value)) {}
    /* implicit */ Result(Error error) : data_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(data_); }
    explicit operator bool() const { return ok(); }

    /** The contained value. Precondition: ok(). */
    const T& value() const & { return std::get<T>(data_); }
    T& value() & { return std::get<T>(data_); }
    T&& value() && { return std::get<T>(std::move(data_)); }

    /** The contained error. Precondition: !ok(). */
    const Error& error() const { return std::get<Error>(data_); }

    /** Value if ok, otherwise the fallback. */
    T valueOr(T fallback) const
    {
        return ok() ? std::get<T>(data_) : std::move(fallback);
    }

  private:
    std::variant<T, Error> data_;
};

/** Result specialization for operations with no payload. */
class Status {
  public:
    Status() = default;
    /* implicit */ Status(Error error) : error_(std::move(error)) {}

    static Status okStatus() { return Status(); }

    bool ok() const { return !error_.has_value(); }
    explicit operator bool() const { return ok(); }
    const Error& error() const { return *error_; }

  private:
    std::optional<Error> error_;
};

} // namespace vdram

#endif // VDRAM_UTIL_RESULT_H
