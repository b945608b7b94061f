#include "pragma/sim/simulator.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace pragma::sim {

EventHandle Simulator::schedule(SimTime delay, Callback fn) {
  if (delay < 0.0) throw std::invalid_argument("schedule: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime at, Callback fn) {
  if (at < now_)
    throw std::invalid_argument("schedule_at: time in the past");
  if (!fn) throw std::invalid_argument("schedule_at: empty callback");
  const std::uint64_t id = next_id_++;
  queue_.push(Event{at, next_sequence_++, id, std::move(fn)});
  ++live_pending_;
  return EventHandle{id};
}

EventHandle Simulator::schedule_periodic(SimTime period, Callback fn,
                                         SimTime first_delay) {
  if (period <= 0.0)
    throw std::invalid_argument("schedule_periodic: period must be > 0");
  // The periodic chain shares one logical id so that cancelling the returned
  // handle stops all future occurrences.
  const std::uint64_t id = next_id_++;
  const SimTime delay = first_delay >= 0.0 ? first_delay : period;
  // Self-rescheduling closure; checks cancellation before firing.  The
  // queued event owns it and it refers to itself weakly, so a cancelled,
  // drained or destroyed chain releases `fn`.
  auto tick = std::make_shared<Callback>();
  *tick = [this, id, period, fn = std::move(fn),
           self = std::weak_ptr<Callback>(tick)]() {
    if (is_cancelled(id)) {
      forget_cancelled(id);
      return;
    }
    fn();
    queue_.push(Event{now_ + period, next_sequence_++, id,
                      [owner = self.lock()] { (*owner)(); }});
    ++live_pending_;
  };
  queue_.push(
      Event{now_ + delay, next_sequence_++, id, [tick] { (*tick)(); }});
  ++live_pending_;
  return EventHandle{id};
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (is_cancelled(handle.id_)) return false;
  cancelled_.push_back(handle.id_);
  return true;
}

bool Simulator::is_cancelled(std::uint64_t id) const {
  return std::find(cancelled_.begin(), cancelled_.end(), id) !=
         cancelled_.end();
}

void Simulator::forget_cancelled(std::uint64_t id) {
  cancelled_.erase(std::remove(cancelled_.begin(), cancelled_.end(), id),
                   cancelled_.end());
}

bool Simulator::step() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    --live_pending_;
    if (is_cancelled(event.id)) {
      forget_cancelled(event.id);
      continue;
    }
    now_ = event.time;
    event.fn();
    ++executed_;
    return true;
  }
  return false;
}

std::size_t Simulator::run(SimTime until) {
  stop_requested_ = false;
  std::size_t count = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.top().time > until) break;
    if (!step()) break;
    ++count;
  }
  if (!stop_requested_ && until != std::numeric_limits<SimTime>::infinity())
    now_ = std::max(now_, until);
  return count;
}

bool Simulator::empty() const { return live_pending_ == 0; }

std::size_t Simulator::pending() const { return live_pending_; }

}  // namespace pragma::sim
