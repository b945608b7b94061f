#include "pragma/core/managed_run.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "pragma/core/run_snapshot.hpp"
#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::core {

ManagedRun::ManagedRun(ManagedRunConfig config, res::RunAccount* account)
    : config_(std::move(config)),
      account_(account),
      cluster_(grid::ClusterBuilder::for_spread(
          config_.nprocs, config_.capacity_spread, util::Rng(config_.seed, 1))),
      calculator_(config_.weights),
      policies_(policy::standard_policy_base()),
      emulator_(config_.app),
      model_(config_.exec) {
  // Merge-enable: turns requested facilities on, never off, so an embedded
  // default config cannot disable obs the process enabled elsewhere.
  if (config_.obs.any()) obs::apply(config_.obs);
  if (config_.with_background_load) {
    loadgen_ = std::make_unique<grid::LoadGenerator>(
        simulator_, cluster_, config_.load, util::Rng(config_.seed, 2));
    loadgen_->start();
  }
  failures_ = std::make_unique<grid::FailureInjector>(simulator_, cluster_);
  nws_ = std::make_unique<monitor::ResourceMonitor>(
      simulator_, cluster_, config_.monitor, util::Rng(config_.seed, 3));
  nws_->start();
  // Prime the monitor so the very first capacity calculation sees real
  // readings instead of empty series.
  nws_->sample_now();
  meta_ = std::make_unique<MetaPartitioner>(policies_, config_.meta);
  mcs_ = std::make_unique<agents::Mcs>(simulator_, policies_);

  // Register the execution-environment template and build the control
  // network (Fig. 1 flow).
  agents::EnvTemplate blueprint;
  blueprint.name = "managed-cluster";
  blueprint.provides["arch"] = policy::Value{std::string("linux-cluster")};
  blueprint.provides["nodes"] =
      policy::Value{static_cast<double>(config_.nprocs)};
  mcs_->registry().register_template(blueprint);

  agents::AppSpec spec;
  spec.name = config_.app_name;
  spec.requirements["arch"] = policy::Value{std::string("linux-cluster")};
  spec.sample_period_s = config_.agent_period_s;
  for (std::size_t c = 0; c < config_.nprocs; ++c)
    spec.components.push_back("p" + std::to_string(c));
  environment_ = mcs_->build(std::move(spec));
  wire_agents();

  trace_.add(amr::Snapshot{0, emulator_.hierarchy()});

  if (config_.persist.enabled)
    store_ = std::make_unique<io::CheckpointStore>(io::CheckpointStoreOptions{
        config_.persist.dir, config_.persist.keep_last_n,
        io::kDefaultMaxPayloadBytes});
}

bool ManagedRun::port_reachable(const agents::PortId& port) const {
  // Ports not tied to a node (ADM, detector) live on the front end and are
  // always reachable; component-agent ports die with their node.
  const auto it = port_node_.find(port);
  if (it == port_node_.end()) return true;
  return cluster_.node(it->second).state().up;
}

void ManagedRun::wire_agents() {
  for (std::size_t c = 0; c < environment_->agent_count(); ++c) {
    agents::ComponentAgent& agent = environment_->agent(c);
    const auto node = static_cast<grid::NodeId>(c);
    agent.add_sensor(agents::Sensor{
        "load", [this, node] {
          return cluster_.node(node).state().background_load;
        }});
    agent.add_sensor(agents::Sensor{
        "node_up", [this, node] {
          return cluster_.node(node).state().up ? 1.0 : 0.0;
        }});
    agent.add_rule(agents::ThresholdRule{"load",
                                         config_.load_event_threshold, true,
                                         "load_high", 30.0});
    // Oracle liveness feed: an agent that keeps publishing from a dead
    // machine.  With fault tolerance on, death is *detected* from
    // heartbeat silence instead (wire_fault_tolerance below).
    if (!config_.ft.enabled)
      agent.add_rule(
          agents::ThresholdRule{"node_up", 0.5, false, "node_down", 20.0});
    // The save-state actuator (Section 3.4.1): a "save_state" directive
    // forces a durable checkpoint at the next coarse-step boundary.
    if (config_.persist.enabled)
      agent.add_actuator(agents::Actuator{
          "save_state",
          [this](const policy::AttributeSet&) {
            checkpoint_requested_ = true;
          }});
  }

  if (config_.ft.enabled) wire_fault_tolerance();

  // The ADM's consolidated decisions act on the running assignment.
  environment_->adm().set_directive_hook(
      [this](const std::string& action, const policy::AttributeSet&) {
        if (!has_assignment_) return std::vector<agents::PortId>{};
        if (action == "migrate") {
          // Failure response: redistribute over the surviving nodes.
          ++report_.migrations;
          if (config_.ft.enabled) rollback_recovery();
          repartition(/*count_as_regrid=*/false);
        } else if (action == "repartition") {
          ++report_.event_repartitions;
          repartition(/*count_as_regrid=*/false);
        }
        return std::vector<agents::PortId>{};
      });
  environment_->start();
  if (detector_) detector_->start();
}

void ManagedRun::wire_fault_tolerance() {
  agents::MessageCenter& center = environment_->message_center();

  for (std::size_t c = 0; c < environment_->agent_count(); ++c)
    port_node_[environment_->agent(c).port()] =
        static_cast<grid::NodeId>(c);

  // Lossy channel, with the liveness overlay.
  center.set_faults(
      agents::ChannelFaults{
          config_.ft.channel,
          [this](const agents::PortId& from, const agents::PortId& to) {
            return port_reachable(from) && port_reachable(to);
          }},
      util::Rng(config_.seed, 7));

  // Directives ride the request/reply protocol.
  reliable_ = std::make_unique<agents::ReliableChannel>(
      simulator_, center, config_.ft.reliable);
  for (const auto& [port, node] : port_node_) reliable_->make_endpoint(port);
  environment_->adm().use_reliable_channel(reliable_.get());
  reliable_->set_failure_handler(
      [this](const agents::Message& message, int) {
        // Exhausting retries against a dead node is expected (abandoned on
        // confirmation); a directive lost to a *live* target is a real
        // protocol failure.
        if (port_reachable(message.to)) ++report_.lost_directives;
      });

  // Heartbeats from every component agent, gated on node liveness.
  const std::string topic = environment_->spec().name + ".hb";
  for (std::size_t c = 0; c < environment_->agent_count(); ++c) {
    agents::ComponentAgent& agent = environment_->agent(c);
    const auto node = static_cast<grid::NodeId>(c);
    agent.set_liveness(
        [this, node] { return cluster_.node(node).state().up; });
    agent.enable_heartbeat(topic, config_.ft.heartbeat.period_s);
  }
  detector_ = std::make_unique<agents::HeartbeatDetector>(
      simulator_, center, topic, config_.ft.heartbeat,
      environment_->spec().name + ".detector");
  for (const auto& [port, node] : port_node_) detector_->watch(port);
  detector_->set_on_suspect(
      [this](const agents::PortId& port, double now) {
        on_suspect(port, now);
      });
  detector_->set_on_confirm(
      [this](const agents::PortId& port, double now) {
        on_confirm(port, now);
      });

  // Degraded monitoring: NWS probes time out against dead nodes.
  nws_->set_reachability([this](grid::NodeId node) {
    return cluster_.node(node).state().up;
  });
}

void ManagedRun::on_suspect(const agents::PortId& port, double now) {
  ++report_.suspects;
  const auto it = port_node_.find(port);
  if (it == port_node_.end()) return;
  const grid::NodeId node = it->second;
  // Ground truth (reporting only — the runtime never acts on it): was the
  // node actually down at any point in the silence window?
  if (!cluster_.node(node).state().up) return;
  const double window =
      config_.ft.heartbeat.period_s *
          static_cast<double>(config_.ft.heartbeat.suspect_missed) +
      config_.ft.heartbeat.period_s;
  for (const grid::FailureEvent& event : failures_->history())
    if (event.node == node && !event.up && event.time >= now - window)
      return;
  ++report_.false_suspects;
}

void ManagedRun::on_confirm(const agents::PortId& port, double now) {
  const auto it = port_node_.find(port);
  if (it == port_node_.end()) return;
  const grid::NodeId node = it->second;
  ++report_.detected_failures;
  PRAGMA_FLIGHT(now, "failure", "node ", node, " (", port,
                ") confirmed dead");
  // A confirmed failure is exactly the moment the recent-events ring is
  // worth reading: dump it before recovery overwrites the history.
  if (obs::flight_enabled()) obs::FlightRecorder::instance().dump_to_log();

  // Detection latency: time from the (ground-truth) failure event to this
  // confirmation.  The stalled application has been paying for it already;
  // here it is attributed explicitly.
  double failed_at = now;
  const auto& history = failures_->history();
  for (auto event = history.rbegin(); event != history.rend(); ++event) {
    if (event->node == node && !event->up && event->time <= now) {
      failed_at = event->time;
      break;
    }
  }
  const double latency = now - failed_at;
  report_.detection_latency_s += latency;
  pending_detection_s_ += latency;
  pending_victims_.push_back(node);

  // Stop retrying in-flight directives to the dead component.
  if (reliable_) reliable_->abandon_destination(port);

  // Feed the control loop exactly like an agent event would: the builtin
  // node_failure_migrate policy keys on sensor node_up <= 0.5.
  agents::Message event;
  event.from = detector_ ? detector_->port() : port;
  event.type = "node_down";
  event.payload["component"] = policy::Value{port};
  event.payload["sensor"] = policy::Value{std::string("node_up")};
  event.payload["value"] = policy::Value{0.0};
  environment_->message_center().publish(
      environment_->adm().config().event_topic, std::move(event));
}

void ManagedRun::rollback_recovery() {
  if (pending_victims_.empty() && pending_detection_s_ <= 0.0) return;
  // Survivors recompute everything the victims did since the last
  // checkpoint.  The accumulator (not the current share times steps) is
  // the right quantity: a suspected node's work may already have been
  // repartitioned away before the failure was confirmed.
  double lost_cells = 0.0;
  for (const grid::NodeId victim : std::exchange(pending_victims_, {}))
    if (victim < cells_since_checkpoint_.size())
      lost_cells += std::exchange(cells_since_checkpoint_[victim], 0.0);

  const double rate_flops = cluster_.total_effective_gflops() * 1e9;
  const double recompute_s =
      rate_flops > 0.0
          ? lost_cells * config_.exec.flops_per_cell_update / rate_flops
          : 0.0;
  report_.recomputed_cells += lost_cells;
  report_.recovery_time_s += recompute_s;
  report_.total_time_s += recompute_s;
  const double detection_s = std::exchange(pending_detection_s_, 0.0);
  if (!report_.records.empty()) {
    report_.records.back().recovery_s += recompute_s;
    report_.records.back().lost_cells += lost_cells;
    report_.records.back().detection_s += detection_s;
  }
  PRAGMA_FLIGHT(simulator_.now(), "recovery", "rollback of ", lost_cells,
                " cell updates (", recompute_s, " s recompute, ",
                detection_s, " s detection)");
  util::log_debug("managed run: rollback recovery of ", lost_cells,
                  " cell updates (", recompute_s, " s)");
}

void ManagedRun::take_checkpoint() {
  PRAGMA_SPAN_VAR(span, "core", "ManagedRun.take_checkpoint");
  // Save-state cost: every live processor writes its partition's state
  // over its uplink; the checkpoint completes when the slowest finishes.
  double cost = 0.0;
  double total_bytes = 0.0;
  for (grid::NodeId p = 0; p < cluster_.size(); ++p) {
    if (p >= mapped_.work.size()) break;
    if (!cluster_.node(p).state().up || mapped_.work[p] <= 0.0) continue;
    const double bytes = mapped_.work[p] * config_.exec.bytes_per_cell;
    total_bytes += bytes;
    const double rate = cluster_.uplink(p).effective_bytes_per_s() /
                        config_.exec.redistribution_overhead;
    if (rate > 0.0) cost = std::max(cost, bytes / rate);
  }
  if (account_ != nullptr)
    account_->charge_io(static_cast<std::uint64_t>(total_bytes));
  ++report_.checkpoints;
  PRAGMA_FLIGHT(simulator_.now(), "checkpoint", "save-state #",
                report_.checkpoints, " (", cost, " s modeled)");
  report_.checkpoint_time_s += cost;
  report_.total_time_s += cost;
  std::fill(cells_since_checkpoint_.begin(), cells_since_checkpoint_.end(),
            0.0);
  if (cost > 0.0) simulator_.run(simulator_.now() + cost);
  last_checkpoint_time_ = simulator_.now();
  // The durable half of save-state: the modeled cost above is the
  // simulated write; this is the real one.  Real I/O time is *not*
  // charged to the simulation clock (it would break determinism).
  if (config_.persist.enabled) persist_checkpoint();
}

void ManagedRun::persist_checkpoint() {
  RunSnapshot snapshot;
  snapshot.config_fingerprint = config_fingerprint(config_);
  snapshot.completed_steps = completed_steps_;
  snapshot.emulator_step = emulator_.step();
  snapshot.sim_clock = simulator_.now();
  snapshot.max_box_cells =
      static_cast<std::int64_t>(emulator_.config().cluster.max_box_cells);
  snapshot.select_indices = select_indices_;
  snapshot.owners.assign(owners_.owner.begin(), owners_.owner.end());
  snapshot.owners_nprocs = owners_.nprocs;
  snapshot.trace = trace_;
  snapshot.report = report_;
  snapshot.pending_victims = pending_victims_;
  snapshot.pending_detection_s = pending_detection_s_;
  const util::Status status =
      store_->write(encode_run_snapshot(snapshot));
  if (status.is_ok()) {
    ++report_.checkpoints_persisted;
    PRAGMA_FLIGHT(simulator_.now(), "checkpoint", "persisted record #",
                  report_.checkpoints_persisted, " at step ",
                  completed_steps_);
  } else {
    // A failed durable write degrades recovery, not the run itself.
    util::log_warn("persist: checkpoint write failed: ",
                   status.to_string());
  }
}

bool ManagedRun::try_restore() {
  PRAGMA_SPAN("core", "ManagedRun.try_restore");
  const std::uint64_t want = config_fingerprint(config_);
  std::size_t torn = 0;
  const std::vector<io::CheckpointRecord> records = store_->records(&torn);
  report_.checkpoint_generations_rejected += torn;
  for (const io::CheckpointRecord& record : records) {
    // Validate a candidate completely before mutating any run state: once
    // the simulator has been fast-forwarded there is no rewinding for an
    // older record.
    util::Expected<RunSnapshot> decoded = decode_run_snapshot(record.payload);
    util::Status status = decoded.status();
    std::optional<partition::WorkGrid> canonical;
    if (decoded) {
      const RunSnapshot& snapshot = decoded.value();
      if (snapshot.config_fingerprint != want) {
        status = util::Status::failed_precondition(
            "checkpoint was taken under a different configuration");
      } else if (snapshot.emulator_step > config_.app.coarse_steps ||
                 snapshot.trace.empty()) {
        status = util::Status::invalid("checkpoint beyond configured run");
      } else {
        canonical.emplace(snapshot.trace.snapshots().back().hierarchy,
                          kCanonicalGrain, kCanonicalCurve);
        if (snapshot.owners.size() != canonical->cell_count())
          status = util::Status::invalid(
              "owner map size " + std::to_string(snapshot.owners.size()) +
              " mismatches work grid of " +
              std::to_string(canonical->cell_count()));
      }
    }
    if (!status.is_ok()) {
      ++report_.checkpoint_generations_rejected;
      PRAGMA_FLIGHT(0.0, "checkpoint", "generation ", record.generation,
                    " record ", record.offset, " rejected: ",
                    status.to_string());
      util::log_warn("persist: generation ", record.generation, " record ",
                     record.offset, " rejected: ", status.to_string());
      continue;
    }
    const RunSnapshot& snapshot = decoded.value();

    // Fast-forward the periodic control plane (monitor samples, agent
    // ticks, background load) to the checkpoint's clock.  This replays
    // the exact event and RNG-draw sequence the original run produced up
    // to this time, which is what makes the resumed continuation
    // byte-identical.  The ADM directive hook is inert during the replay
    // because no assignment exists yet, so replayed confirmations leave
    // pending rollback state behind; the checkpoint's replaces it below.
    if (snapshot.sim_clock > 0.0) simulator_.run(snapshot.sim_clock);

    // Application state on top of the replayed control plane.
    trace_ = snapshot.trace;
    emulator_.restore(snapshot.emulator_step,
                      trace_.snapshots().back().hierarchy);
    emulator_.set_max_box_cells(snapshot.max_box_cells);
    select_indices_ = snapshot.select_indices;
    std::map<std::uint32_t, octant::OctantState> states;
    for (const std::uint32_t index : select_indices_) {
      auto state = states.find(index);
      if (state == states.end())
        state = states
                    .emplace(index, meta_->classifier().classify(trace_, index))
                    .first;
      (void)meta_->select(state->second, index);
    }

    owners_.owner.assign(snapshot.owners.begin(), snapshot.owners.end());
    owners_.nprocs = snapshot.owners_nprocs;
    canonical_ = std::move(canonical);
    regrid_state_.reset();
    native_.reset();
    mapped_ = model_.map(*canonical_, owners_);
    has_assignment_ = true;

    const std::size_t rejected = report_.checkpoint_generations_rejected;
    report_ = snapshot.report;
    report_.checkpoint_generations_rejected = rejected;
    report_.resumed = true;
    completed_steps_ = snapshot.completed_steps;
    last_checkpoint_time_ = snapshot.sim_clock;
    cells_since_checkpoint_.assign(config_.nprocs, 0.0);
    pending_victims_ = snapshot.pending_victims;
    pending_detection_s_ = snapshot.pending_detection_s;
    PRAGMA_FLIGHT(snapshot.sim_clock, "recovery", "resumed from generation ",
                  record.generation, " at step ", completed_steps_);
    if (obs::flight_enabled()) obs::FlightRecorder::instance().dump_to_log();
    util::log_info("persist: resumed from generation ", record.generation,
                   " at step ", completed_steps_, " (t=", snapshot.sim_clock,
                   "s)");
    return true;
  }
  util::log_info("persist: no usable checkpoint; starting fresh");
  return false;
}

void ManagedRun::schedule_failure(double at_s, grid::NodeId node,
                                  double downtime_s) {
  failures_->schedule_failure(at_s, node, downtime_s);
}

void ManagedRun::start_random_failures(double mtbf_s, double mttr_s) {
  failures_->start_random(mtbf_s, mttr_s, util::Rng(config_.seed, 8));
}

std::vector<double> ManagedRun::current_targets() {
  std::vector<double> targets;
  if (config_.system_sensitive) {
    const monitor::RelativeCapacities capacities =
        config_.ft.enabled
            ? (config_.proactive
                   ? calculator_.from_forecast(*nws_, simulator_.now(),
                                               config_.ft.staleness)
                   : calculator_.from_current(*nws_, simulator_.now(),
                                              config_.ft.staleness))
            : (config_.proactive ? calculator_.from_forecast(*nws_)
                                 : calculator_.from_current(*nws_));
    targets = capacities.fraction;
  } else {
    targets.assign(config_.nprocs, 1.0);
  }
  // A node believed down receives no work.  The fault-tolerant runtime
  // only has the detector's belief to go on; the ideal runtime reads the
  // cluster oracle.
  double total = 0.0;
  for (std::size_t p = 0; p < targets.size(); ++p) {
    if (config_.ft.enabled && detector_) {
      const auto port = environment_->agent(p).port();
      if (detector_->liveness(port) != agents::Liveness::kAlive)
        targets[p] = 0.0;
    } else if (!cluster_.node(static_cast<grid::NodeId>(p)).state().up) {
      targets[p] = 0.0;
    }
    total += targets[p];
  }
  if (total > 0.0)
    for (double& t : targets) t /= total;
  return targets;
}

void ManagedRun::repartition(bool count_as_regrid) {
  PRAGMA_SPAN_VAR(span, "core", "ManagedRun.repartition");
  span.annotate("trigger", count_as_regrid ? "regrid" : "event");
  // Dynamic application configuration (Section 3.5): low available memory
  // on any live node bounds the refined patch size the regridder may emit.
  double min_memory = std::numeric_limits<double>::infinity();
  for (grid::NodeId p = 0; p < cluster_.size(); ++p)
    if (cluster_.node(p).state().up)
      min_memory = std::min(min_memory, nws_->current(p).memory_mib);
  if (std::isfinite(min_memory)) {
    policy::AttributeSet query;
    query["memory"] = policy::Value{min_memory};
    if (const auto bound = policies_.decide(query, "max_patch_cells"))
      emulator_.set_max_box_cells(
          static_cast<std::int64_t>(std::get<double>(*bound)));
  }

  // The emulator's hierarchy changes only at a regrid, so an event
  // repartition keeps the canonical grid rasterized at the last one, with
  // its snapshot's classification and native grid.
  if (count_as_regrid || !canonical_.has_value()) {
    canonical_.emplace(emulator_.hierarchy(), kCanonicalGrain,
                       kCanonicalCurve);
    regrid_state_.reset();
    native_.reset();
  }

  targets_ = current_targets();
  const std::size_t select_index = trace_.size() - 1;
  if (!regrid_state_)
    regrid_state_ = meta_->classifier().classify(trace_, select_index);
  const partition::Partitioner& partitioner =
      meta_->select(*regrid_state_, select_index);
  if (config_.persist.enabled)
    select_indices_.push_back(static_cast<std::uint32_t>(select_index));

  const int grain = meta_->current_grain() > 0
                        ? meta_->current_grain()
                        : partitioner.preferred_grain();
  const partition::WorkGrid& native = native_grid(grain, partitioner.curve());
  const partition::PartitionResult result =
      partitioner.partition(native, targets_);

  partition::OwnerMap next = project_owners(
      result.owners, native.lattice_dims(), canonical_->lattice_dims());

  // The measured partitioner cost is wall clock — fine for the ideal runs,
  // but nondeterministic; the fault-tolerant and persistent paths model it
  // (by default at kModeledPartitionSPerCell) so chaos runs and checkpoint
  // resumes replay byte-identically under a fixed seed.
  double partition_seconds = result.partition_seconds;
  double modeled_s_per_cell = config_.modeled_partition_s_per_cell;
  if (modeled_s_per_cell <= 0.0 &&
      (config_.ft.enabled || config_.persist.enabled))
    modeled_s_per_cell = kModeledPartitionSPerCell;
  if (modeled_s_per_cell > 0.0)
    partition_seconds =
        static_cast<double>(native.cell_count()) * modeled_s_per_cell;
  const bool migrates =
      has_assignment_ && next.owner.size() == owners_.owner.size();
  mapped_ = model_.map(*canonical_, next, nullptr,
                       migrates ? &owners_ : nullptr);
  double overhead = model_.partition_cost(partition_seconds);
  if (migrates) overhead += model_.migration_time(mapped_, cluster_);
  report_.total_time_s += overhead;

  owners_ = std::move(next);
  has_assignment_ = true;
  if (count_as_regrid) ++report_.repartitions;
  span.annotate("partitioner", partitioner.name());
  span.annotate("cells", canonical_->cell_count());
  util::log_debug("managed run: repartitioned with ", partitioner.name(),
                  count_as_regrid ? " (regrid)" : " (event)");
}

const partition::WorkGrid& ManagedRun::native_grid(
    int grain, partition::CurveKind curve) {
  const auto has_key = [grain, curve](const partition::WorkGrid& grid) {
    return grid.grain() == grain && grid.curve() == curve;
  };
  if (has_key(*canonical_)) return *canonical_;
  if (!native_ || !has_key(*native_))
    native_.emplace(emulator_.hierarchy(), grain, curve);
  return *native_;
}

void ManagedRun::start() {
  started_ = true;
  if (config_.persist.enabled && config_.persist.resume && try_restore())
    return;
  repartition(/*count_as_regrid=*/true);
  last_checkpoint_time_ = simulator_.now();
  cells_since_checkpoint_.assign(config_.nprocs, 0.0);
}

bool ManagedRun::step_once() {
  if (emulator_.step() >= config_.app.coarse_steps) return false;
  // Cooperative cancellation (service layer): stop at the step boundary;
  // run() still does the final accounting, so the partial report is
  // internally consistent.
  if (cancel_.load(std::memory_order_relaxed)) return false;
  PRAGMA_SPAN_VAR(step_span, "core", "ManagedRun.step");
  step_span.annotate("step", static_cast<std::int64_t>(emulator_.step()));
  const bool regridded = emulator_.advance();
  if (regridded) {
    trace_.add(amr::Snapshot{emulator_.step(), emulator_.hierarchy()});
    ++report_.regrids;
    repartition(/*count_as_regrid=*/true);

    ManagedStepRecord record;
    record.step = emulator_.step();
    const Selection& selection = meta_->history().back();
    record.octant = octant::to_string(selection.state.octant());
    record.partitioner = selection.partitioner;
    record.sim_time_s = simulator_.now();
    record.live_nodes = cluster_.up_count();
    record.repartitioned = true;
    // Imbalance against the targets the repartition just partitioned
    // for, from the per-processor work it just mapped.
    const double total_work = canonical_->total_work();
    double worst = 0.0;
    for (std::size_t p = 0; p < mapped_.work.size(); ++p)
      if (targets_[p] > 0.0)
        worst = std::max(worst, mapped_.work[p] / (targets_[p] * total_work));
    record.imbalance = std::max(0.0, worst - 1.0);
    report_.records.push_back(record);
  }

  // Cost this coarse step against the current cluster state.  If a node
  // holding work has failed, the application stalls until the control
  // network reacts (sensing or heartbeat timeout, consolidation, migrate
  // directive) — detection latency is paid right here.
  StepTime step = model_.time_of(mapped_, cluster_);
  int stall_guard = 0;
  while (!std::isfinite(step.total_s) && stall_guard < 600) {
    const double before = simulator_.now();
    simulator_.run(before + 1.0);  // let agents/ADM make progress
    report_.total_time_s += simulator_.now() - before;
    step = model_.time_of(mapped_, cluster_);
    ++stall_guard;
  }
  if (!std::isfinite(step.total_s)) {
    PRAGMA_FLIGHT(simulator_.now(), "failure", "unrecoverable stall at step ",
                  emulator_.step(), "; aborting run");
    if (obs::flight_enabled()) obs::FlightRecorder::instance().dump_to_log();
    util::log_error("managed run: unrecoverable stall; aborting run");
    return false;
  }
  // A throttled violator pays the slowdown in modeled step time — the
  // report, the simulator clock, and the account all see the same
  // inflated cost.
  if (account_ != nullptr && account_->throttled() &&
      account_->budget().throttle_factor > 1.0)
    step.total_s *= account_->budget().throttle_factor;
  report_.total_time_s += step.total_s;
  if (!report_.records.empty())
    report_.records.back().step_time_s = step.total_s;
  simulator_.run(simulator_.now() + step.total_s);
  ++completed_steps_;
  if (account_ != nullptr) {
    account_->charge_cpu(step.total_s);
    if (canonical_)
      account_->sample_memory(static_cast<std::uint64_t>(
          canonical_->total_work() * config_.exec.bytes_per_cell));
  }
  if (config_.ft.enabled || config_.persist.enabled) {
    report_.cells_advanced += canonical_->total_work();
    for (std::size_t p = 0;
         p < mapped_.work.size() && p < cells_since_checkpoint_.size(); ++p)
      cells_since_checkpoint_[p] += mapped_.work[p];
    if (simulator_.now() - last_checkpoint_time_ >=
            config_.checkpoint_interval_s ||
        checkpoint_requested_) {
      checkpoint_requested_ = false;
      take_checkpoint();
    }
  }
  // Budget kill: stop at the boundary exactly like a cancel; the caller
  // reads the account's verdict.
  return account_ == nullptr || !account_->should_stop();
}

bool ManagedRun::run_until(int steps) {
  if (!started_) start();
  while (!ended_ && completed_steps_ < steps) ended_ = !step_once();
  if (emulator_.step() >= config_.app.coarse_steps) ended_ = true;
  return !ended_;
}

ManagedRunReport ManagedRun::run() {
  PRAGMA_SPAN_VAR(run_span, "core", "ManagedRun.run");
  run_span.annotate("nprocs", config_.nprocs);
  run_span.annotate("coarse_steps",
                    static_cast<std::int64_t>(config_.app.coarse_steps));
  (void)run_until(config_.app.coarse_steps);

  report_.partitioner_switches = meta_->switch_count();
  std::size_t events = 0;
  for (std::size_t c = 0; c < environment_->agent_count(); ++c)
    events += environment_->agent(c).events_published();
  report_.agent_events = events;
  report_.adm_decisions = environment_->adm().decisions().size();
  if (config_.ft.enabled) {
    const agents::MessageCenter& center = environment_->message_center();
    report_.messages_lost = center.fault_dropped_count();
    report_.messages_partition_dropped = center.partition_dropped_count();
    if (reliable_) {
      report_.directive_retries = reliable_->retries();
      report_.directives_abandoned = reliable_->abandoned();
      report_.duplicates_suppressed = reliable_->duplicates_suppressed();
    }
    if (detector_) {
      report_.heartbeats_received = detector_->beats_received();
      report_.detector_recoveries = detector_->recoveries();
    }
  }
  return report_;
}

}  // namespace pragma::core
