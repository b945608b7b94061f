#include "pragma/core/meta_partitioner.hpp"

#include <stdexcept>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"

namespace pragma::core {

namespace {
obs::Counter& meta_selects_counter() {
  static obs::Counter& counter = obs::metrics().counter("core.meta.selects");
  return counter;
}
obs::Counter& meta_switches_counter() {
  static obs::Counter& counter = obs::metrics().counter("core.meta.switches");
  return counter;
}
}  // namespace

MetaPartitioner::MetaPartitioner(const policy::PolicyBase& policies,
                                 MetaPartitionerConfig config)
    : policies_(policies),
      config_(config),
      classifier_(config.thresholds),
      suite_(partition::standard_suite(config.partitioner_options)) {}

const partition::Partitioner& MetaPartitioner::by_name(
    const std::string& name) const {
  for (const auto& partitioner : suite_)
    if (partitioner->name() == name) return *partitioner;
  throw std::invalid_argument("MetaPartitioner: unknown partitioner " + name);
}

const partition::Partitioner& MetaPartitioner::select(
    const amr::AdaptationTrace& trace, std::size_t i) {
  return select(classifier_.classify(trace, i), i);
}

const partition::Partitioner& MetaPartitioner::select(
    const octant::OctantState& state, std::size_t i) {
  PRAGMA_SPAN_VAR(span, "core", "MetaPartitioner.select");
  meta_selects_counter().add();
  span.annotate("octant", octant::to_string(state.octant()));

  // Policy query: "octant = <name>" -> partitioner (+ optional grain).
  policy::AttributeSet query;
  query["octant"] = policy::Value{octant::to_string(state.octant())};
  std::string selected;
  if (const auto decision = policies_.decide(query, "partitioner")) {
    selected = policy::to_string(*decision);
  } else {
    // No policy matched: fall back to the Table 2 defaults.
    selected = octant::select_partitioner(state.octant());
  }
  int grain = 0;
  if (const auto configured = policies_.decide(query, "grain"))
    if (const auto* value = std::get_if<double>(&*configured))
      grain = static_cast<int>(*value);

  bool switched = false;
  current_grain_ = grain;
  if (current_.empty()) {
    current_ = selected;
  } else if (selected != current_) {
    if (selected == pending_) {
      ++pending_count_;
    } else {
      pending_ = selected;
      pending_count_ = 1;
    }
    if (pending_count_ >= config_.hysteresis) {
      current_ = selected;
      pending_.clear();
      pending_count_ = 0;
      switched = true;
      ++switches_;
    }
  } else {
    pending_.clear();
    pending_count_ = 0;
  }

  if (switched) {
    meta_switches_counter().add();
    PRAGMA_FLIGHT(static_cast<double>(i), "partitioner", "regrid ", i,
                  " octant ", octant::to_string(state.octant()), " -> ",
                  current_);
  }
  span.annotate("partitioner", current_);
  history_.push_back(Selection{i, state, current_, current_grain_, switched});
  return by_name(current_);
}

}  // namespace pragma::core
