// Structured, size-bounded error handling for the I/O boundary.
//
// Everything that crosses the trust boundary — adaptation traces, policy
// rule files, checkpoint snapshots — parses *untrusted* bytes.  Those
// paths return Status / Expected<T> instead of throwing: a malformed or
// hostile input must yield a bounded, inspectable error, never a crash,
// an unbounded allocation, or an exception used for control flow.
//
// Conventions (see DESIGN.md "Durability & error-handling conventions"):
//   * parsers and loaders of external bytes return Expected<T>;
//   * programmer errors (violated preconditions on in-process data) keep
//     throwing std::logic_error family exceptions.
//
// Error messages are truncated to kMaxMessageBytes so that hostile input
// echoed into a message cannot balloon memory or log volume.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace pragma::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    ///< input violates the format contract
  kOutOfRange,         ///< a value parsed but exceeds its documented cap
  kDataLoss,           ///< corruption detected (CRC mismatch, torn write)
  kNotFound,           ///< missing file / no valid checkpoint generation
  kFailedPrecondition, ///< valid bytes, wrong context (config mismatch)
  kUnimplemented,      ///< versioned format from the future
  kInternal,           ///< I/O syscall failure and other environment errors
  kUnavailable,        ///< transient overload (admission queue full, shed)
  kResourceExhausted,  ///< a per-run resource budget was exceeded
};

[[nodiscard]] constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kOutOfRange: return "out-of-range";
    case StatusCode::kDataLoss: return "data-loss";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kFailedPrecondition: return "failed-precondition";
    case StatusCode::kUnimplemented: return "unimplemented";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kResourceExhausted: return "resource-exhausted";
  }
  return "unknown";
}

class Status {
 public:
  /// Hard cap on stored message size; longer messages are truncated with
  /// a "..." marker.  Bounds the damage of echoing hostile input.
  static constexpr std::size_t kMaxMessageBytes = 512;

  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    if (message_.size() > kMaxMessageBytes) {
      message_.resize(kMaxMessageBytes);
      message_ += "...";
    }
  }

  [[nodiscard]] static Status ok() { return Status(); }
  [[nodiscard]] static Status invalid(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  [[nodiscard]] static Status out_of_range(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  [[nodiscard]] static Status data_loss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }
  [[nodiscard]] static Status not_found(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  [[nodiscard]] static Status failed_precondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  [[nodiscard]] static Status unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  [[nodiscard]] static Status internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  [[nodiscard]] static Status unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  [[nodiscard]] static Status resource_exhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "data-loss: payload CRC mismatch" — for logs and legacy rethrow.
  [[nodiscard]] std::string to_string() const {
    if (is_ok()) return "ok";
    return std::string(util::to_string(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or the Status explaining its absence.  Minimal by design —
/// enough for the loader/parser call sites without pulling in C++23.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)), has_value_(true) {}  // NOLINT
  Expected(Status status) : status_(std::move(status)) {             // NOLINT
    if (status_.is_ok())
      status_ = Status::internal("Expected constructed from OK status");
  }

  [[nodiscard]] bool has_value() const { return has_value_; }
  explicit operator bool() const { return has_value_; }

  [[nodiscard]] const T& value() const& { return value_; }
  [[nodiscard]] T& value() & { return value_; }
  [[nodiscard]] T&& value() && { return std::move(value_); }

  /// Status::ok() when a value is present.
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T value_or(T fallback) const& {
    return has_value_ ? value_ : std::move(fallback);
  }

 private:
  T value_{};
  Status status_{};
  bool has_value_ = false;
};

}  // namespace pragma::util
