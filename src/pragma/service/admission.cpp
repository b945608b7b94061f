#include "pragma/service/admission.hpp"

#include <cstring>

#include "pragma/service/scheduler.hpp"

namespace pragma::service {

const char* to_string(RunState state) {
  switch (state) {
    case RunState::kQueued: return "queued";
    case RunState::kRunning: return "running";
    case RunState::kCompleted: return "completed";
    case RunState::kFailed: return "failed";
    case RunState::kCancelled: return "cancelled";
  }
  return "?";
}

const std::string& RunHandle::name() const { return ticket_->spec.name; }

std::uint64_t RunHandle::id() const { return ticket_->run_id; }

RunState RunHandle::state() const {
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->state;
}

bool RunHandle::cancel() {
  if (!valid() || owner_ == nullptr) return false;
  {
    // Terminal tickets resolve here without touching the owner, so a
    // handle outliving its scheduler stays safe to poke.
    std::lock_guard<std::mutex> lock(ticket_->mu);
    if (is_terminal(ticket_->state)) return false;
  }
  return owner_->cancel_ticket(ticket_);
}

const RunOutcome& RunHandle::wait() {
  std::unique_lock<std::mutex> lock(ticket_->mu);
  ticket_->cv.wait(lock, [&] { return is_terminal(ticket_->state); });
  return ticket_->outcome;
}

// ---------------------------------------------------------------------------
// ShedInfo
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kShedToken = " [shed=";
constexpr const char* kRetryToken = " [retry_after_ms=";
}  // namespace

const char* to_string(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kRateLimited: return "rate-limited";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kJournalSaturated: return "journal-saturated";
    case ShedReason::kPayloadTooLarge: return "payload-too-large";
    case ShedReason::kBudgetExhausted: return "budget-exhausted";
    case ShedReason::kShuttingDown: return "shutting-down";
  }
  return "none";
}

bool ShedInfo::retryable(const util::Status& status) {
  switch (shed_info(status).reason) {
    case ShedReason::kRateLimited:
    case ShedReason::kQueueFull:
    case ShedReason::kJournalSaturated:
    case ShedReason::kBudgetExhausted:
      return true;
    case ShedReason::kPayloadTooLarge:
    case ShedReason::kShuttingDown:
      return false;
    case ShedReason::kNone:
      break;
  }
  // Untagged status: the historical convention — the two backpressure
  // codes are worth retrying, everything else is not.
  return status.code() == util::StatusCode::kUnavailable ||
         status.code() == util::StatusCode::kResourceExhausted;
}

util::Status shed_status(util::StatusCode code, ShedReason reason,
                         const std::string& message, int retry_after_ms) {
  std::string tagged = message;
  tagged += kShedToken;
  tagged += to_string(reason);
  tagged += ']';
  if (retry_after_ms >= 0) {
    tagged += kRetryToken;
    tagged += std::to_string(retry_after_ms);
    tagged += ']';
  }
  return util::Status(code, std::move(tagged));
}

namespace {

/// Parse the decimal payload of `token` ("...<token><digits>]...");
/// returns fallback when absent or malformed.
int parse_bracket_int(const std::string& message, const char* token,
                      int fallback) {
  const std::size_t start = message.rfind(token);
  if (start == std::string::npos) return fallback;
  std::size_t pos = start + std::strlen(token);
  long value = 0;
  bool any = false;
  while (pos < message.size() && message[pos] >= '0' && message[pos] <= '9') {
    if (value > (INT32_MAX - 9) / 10) return fallback;
    value = value * 10 + (message[pos] - '0');
    any = true;
    ++pos;
  }
  if (!any || pos >= message.size() || message[pos] != ']') return fallback;
  return static_cast<int>(value);
}

ShedReason parse_reason(const std::string& message) {
  const std::size_t start = message.rfind(kShedToken);
  if (start == std::string::npos) return ShedReason::kNone;
  const std::size_t begin = start + std::strlen(kShedToken);
  const std::size_t end = message.find(']', begin);
  if (end == std::string::npos) return ShedReason::kNone;
  const std::string token = message.substr(begin, end - begin);
  for (const ShedReason reason :
       {ShedReason::kRateLimited, ShedReason::kQueueFull,
        ShedReason::kJournalSaturated, ShedReason::kPayloadTooLarge,
        ShedReason::kBudgetExhausted, ShedReason::kShuttingDown}) {
    if (token == to_string(reason)) return reason;
  }
  return ShedReason::kNone;
}

}  // namespace

ShedInfo shed_info(const util::Status& status) {
  ShedInfo info;
  if (status.is_ok()) return info;
  info.reason = parse_reason(status.message());
  info.retry_after_ms = parse_bracket_int(status.message(), kRetryToken, -1);
  return info;
}

}  // namespace pragma::service
