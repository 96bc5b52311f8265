// End-to-end benchmark runner: one workload, one seed, one process, one
// thread (README.md in this directory has the workloads, the metrics and
// the reasons behind them).
//
// The runner is a closed loop with one client: each run is set up, run to
// completion and checked before the next one starts. It drives the library
// only through public entry points — it builds the same SystemConfig /
// FleetConfig a user would, times construction ("setup") and run()
// separately, and fingerprints each run's simulated outputs. With --trace 1
// it also runs every input a second time with the instruments attached (a
// timing battery decorator, engine handler timing and a metrics registry)
// and a third time with the registry toggled, and reports per-layer counts
// and host-time shares from outside. With --trace 0 it times a slice of a
// benchmark-owned reference workload after each run, so that host times
// can be given at a fixed reference speed (HostSpeed below).
//
// Output: one JSON object on stdout with the raw samples; run.py turns it
// into the benchmark's metrics.
#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atr/profile.h"
#include "battery/bank.h"
#include "battery/battery.h"
#include "battery/kibam.h"
#include "battery/rakhmatov.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "core/system.h"
#include "core/topology.h"
#include "cpu/cpu.h"
#include "fault/fault.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "task/partition.h"
#include "util/rng.h"

namespace {

using namespace deslp;  // NOLINT: single-file harness
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload constants -----------------------------------------------------

/// Input seeds over which paper_heldout_life_err is averaged.
constexpr int kHeldOutInputs = 4;

/// The paper's six DES experiments (0A/0B are analytic, not DES runs).
const std::vector<std::string> kPaperIds = {"1", "1A", "2", "2A", "2B", "2C"};
/// fig10's 2B frame count at seed 42, pinned in tests/fault_matrix_test.cc;
/// the benchmark's seed-42 input 0 is that run and must agree.
constexpr long long kFig10Seed = 42;
constexpr long long kFig10FramesOf2B = 24696;
/// Held back from battery calibration (core/calibration.h).
const std::vector<std::string> kHeldOutIds = {"2B", "2C"};

/// fleet_1024: 32 clusters of 32 nodes. The round quota keeps one run near
/// a second of host time, so a run of the benchmark collects enough runs
/// for a tail percentile; the pack is sized so heads die inside the quota
/// and the dead-head re-election path runs.
constexpr int kFleetNodes = 1024;
constexpr int kFleetClusterSize = 32;
/// The traced pass also runs the same fleet at this size, for the
/// per-event cost scaling ratio.
constexpr int kFleetSmallNodes = 128;
constexpr long long kFleetRounds = 20;
constexpr long long kFleetEpochRounds = 5;
constexpr double kFleetCapacityMah = 0.5;

// --- seeds ------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed of input `k`. Input 0 uses the workload seed itself, so seed 42
/// reproduces the fig10 runs exactly.
std::uint64_t input_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed
                : splitmix64(seed ^ (static_cast<std::uint64_t>(k) << 32));
}

// --- instruments ------------------------------------------------------------

struct BatteryStats {
  long long calls = 0;
  std::int64_t ns = 0;
};

/// Battery decorator that times every call into the battery layer.
class TimingBattery final : public battery::Battery {
 public:
  TimingBattery(std::unique_ptr<battery::Battery> inner, BatteryStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  Seconds discharge(Amps i, Seconds dt) override {
    const Timed t(stats_);
    return inner_->discharge(i, dt);
  }
  [[nodiscard]] bool empty() const override {
    const Timed t(stats_);
    return inner_->empty();
  }
  [[nodiscard]] Seconds time_to_empty(Amps i) const override {
    const Timed t(stats_);
    return inner_->time_to_empty(i);
  }
  [[nodiscard]] bool can_sustain(Amps i, Seconds dt) const override {
    const Timed t(stats_);
    return inner_->can_sustain(i, dt);
  }
  [[nodiscard]] Coulombs nominal_remaining() const override {
    const Timed t(stats_);
    return inner_->nominal_remaining();
  }
  [[nodiscard]] double state_of_charge() const override {
    const Timed t(stats_);
    return inner_->state_of_charge();
  }
  void reset() override {
    const Timed t(stats_);
    inner_->reset();
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] std::unique_ptr<battery::Battery> clone() const override {
    return std::make_unique<TimingBattery>(inner_->clone(), stats_);
  }

 private:
  class Timed {
   public:
    explicit Timed(BatteryStats* stats) : stats_(stats) {}
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
    ~Timed() {
      stats_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start_)
                        .count();
      ++stats_->calls;
    }

   private:
    BatteryStats* stats_;
    Clock::time_point start_ = Clock::now();
  };

  std::unique_ptr<battery::Battery> inner_;
  BatteryStats* stats_;
};

// --- host-speed reference -----------------------------------------------------
//
// The shared host the benchmark was built on changes speed by up to ~2x
// within seconds, and the change lasts seconds to minutes, so medians over
// a 30 s run still move by 20-30% from one run to the next. Each end-to-end
// run is therefore followed by a slice of a fixed reference workload that
// belongs to the benchmark (it calls no library code, so no change to the
// library moves it), and the run's host times are divided by how much
// slower than nominal the reference ran at that moment. Reported times are
// "seconds at the reference speed": on a quiet host, raw seconds.

/// Host time spent on the reference after each run, as a share of the run.
constexpr double kRefShare = 0.25;
/// Nominal time of one reference chunk: its median on the 4-core Xeon VM
/// the bounds were set on.
constexpr double kRefNominalS = 0.85e-3;

/// One chunk of a miniature discrete-event loop, built like the library's
/// hot path: a heap of 64 pending events ordered by (time, sequence), each
/// with a heap-allocated closure and a shared cancel flag, and handlers
/// that draw exp/sqrt/log1p as the battery models do. Returns a checksum.
std::uint64_t ref_des_chunk() {
  struct Event {
    double at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> live;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(later);
  double soc[4] = {1.0, 1.0, 1.0, 1.0};
  double acc = 0.0;
  double now = 0.0;
  std::uint64_t seq = 0;
  const auto schedule = [&](std::uint64_t k) {
    // 32 bytes of state: more than std::function's small buffer holds.
    const double state[4] = {now, soc[k & 3U], acc, static_cast<double>(k)};
    queue.push({now + 0.5 + 0.37 * static_cast<double>(k % 5), seq++,
                [&soc, &acc, &seq, k, state] {
                  soc[k & 3U] -= 1e-7 * std::exp(-soc[k & 3U]) * state[1];
                  acc += std::sqrt(state[0] + 1.0);
                  if (seq % 3 != 0) acc += std::log1p(state[3]);
                },
                std::make_shared<bool>(true)});
  };
  for (std::uint64_t k = 0; k < 64; ++k) schedule(k);
  for (std::uint64_t n = 0; n < 3000; ++n) {
    Event e = queue.top();
    queue.pop();
    now = e.at;
    if (*e.live) e.fn();
    schedule(n % 97);
  }
  return std::bit_cast<std::uint64_t>(acc + soc[0]);
}

/// Times the reference after each run.
class HostSpeed {
 public:
  /// Runs reference chunks for about kRefShare × `run_s` (at least one)
  /// and returns how much slower than nominal they ran.
  double sample(double run_s) {
    int chunks = 0;
    const auto start = Clock::now();
    do {
      checksum_ += ref_des_chunk();
      ++chunks;
    } while (seconds_since(start) < kRefShare * run_s);
    return seconds_since(start) / chunks / kRefNominalS;
  }

  /// Sum of the chunks' results, printed so the work cannot be elided.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  std::uint64_t checksum_ = 0;
};

/// How one run is instrumented.
struct Variant {
  bool registry = false;  // bind a metrics registry (and its monitors)
  bool traced = false;    // battery decorator + engine handler timing
};

// --- fingerprint ------------------------------------------------------------

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(long long v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Hash of every simulated output the benchmark pins: frame counts, fault
/// injections, per-node death times and final SoC bits, and the fleet's
/// election history. Host-side numbers (monitor check counts) stay out.
std::uint64_t fingerprint(const core::RunResult& r,
                          const std::vector<int>& head_sequence) {
  Fnv f;
  f.add(r.frames_sent);
  f.add(r.frames_completed);
  f.add(r.frames_lost);
  f.add(r.migration_retries);
  f.add(r.fault_injections);
  f.add(r.sim_end.value());
  f.add(static_cast<long long>(r.nodes.size()));
  for (const auto& n : r.nodes) {
    f.add(static_cast<long long>(n.died));
    f.add(n.death_time.value());
    f.add(n.final_soc);
  }
  f.add(static_cast<long long>(head_sequence.size()));
  for (int h : head_sequence) f.add(static_cast<long long>(h));
  return f.value();
}

// --- one prepared run -------------------------------------------------------

/// Counters read back after a run (registry or decorator).
using Counters = std::map<std::string, double>;

struct Outcome {
  core::RunResult result;
  std::vector<int> head_sequence;
  Counters counters;
};

/// A constructed system plus the harness-owned objects it borrows. Member
/// order matters: the system is destroyed before the registry, the bank
/// and the stats it points into.
class Prepared {
 public:
  Prepared() = default;
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<battery::BatteryBank> bank;
  BatteryStats battery;
  std::unique_ptr<core::PipelineSystem> pipeline;
  std::unique_ptr<core::FleetSystem> fleet;

  Outcome run() {
    Outcome out;
    if (pipeline) {
      out.result = pipeline->run();
    } else {
      core::FleetResult fr = fleet->run();
      out.result = std::move(fr.run);
      out.head_sequence = std::move(fr.head_sequence);
    }
    return out;
  }

  /// Registry and decorator counters of the finished run (read after the
  /// timed region).
  [[nodiscard]] Counters counters() const {
    Counters out;
    if (battery.calls > 0) {
      out["battery.calls"] = static_cast<double>(battery.calls);
      out["battery.ns"] = static_cast<double>(battery.ns);
    }
    if (registry) {
      double drains = 0.0;
      for (const auto& m : registry->snapshot()) {
        const std::string_view name = m.name;
        if (name.starts_with("node.") && name.ends_with(".drains")) {
          drains += m.value;
        } else if (name == "sim.queue.depth") {
          out[m.name] = m.max;
        } else {
          out[m.name] = m.value;
        }
      }
      out["node.drains"] = drains;
    }
    return out;
  }
};

// --- workload builders --------------------------------------------------------

const core::ExperimentSpec& paper_spec(
    const std::vector<core::ExperimentSpec>& specs, const std::string& id) {
  for (const auto& s : specs)
    if (s.id == id) return s;
  std::fprintf(stderr, "no paper experiment '%s'\n", id.c_str());
  std::exit(2);
}

/// SystemConfig for one paper experiment, as ExperimentSuite::run builds it
/// (default Itsy CPU, profile and link; partition analysis for two stages).
core::SystemConfig paper_config(const core::ExperimentSpec& spec,
                                std::uint64_t seed) {
  core::SystemConfig sys;
  sys.cpu = &cpu::itsy_sa1100();
  sys.profile = &atr::itsy_atr_profile();
  const int stages = static_cast<int>(spec.stage_levels.size());
  if (stages == 1) {
    sys.partition = task::Partition({0}, sys.profile->block_count());
  } else {
    sys.partition = core::selected_two_node_partition(
                        *sys.cpu, *sys.profile, sys.link, sys.frame_delay)
                        .partition;
  }
  sys.stage_levels = spec.stage_levels;
  sys.use_acks = spec.use_acks;
  sys.migrated_levels = spec.migrated_levels;
  sys.rotation_period = spec.rotation_period;
  sys.faults = spec.fault_plan;
  sys.seed = seed;
  return sys;
}

/// Route the pipeline's batteries through a bank: the system's own bank
/// when untraced, or a harness-owned bank whose views sit behind the timing
/// decorator when traced (the same per-slot bank code runs either way).
template <typename Params>
void attach_bank(core::SystemConfig& sys, const Params& params,
                 const Variant& v, Prepared& p) {
  if (v.traced) {
    p.bank = std::make_unique<battery::BatteryBank>(params);
    battery::BatteryBank* bank = p.bank.get();
    BatteryStats* stats = &p.battery;
    sys.battery_factory = [bank, stats] {
      return std::make_unique<TimingBattery>(bank->add_view(), stats);
    };
  } else {
    sys.battery_bank_factory = [params] {
      return std::make_unique<battery::BatteryBank>(params);
    };
  }
}

void finish_pipeline(core::SystemConfig sys, const Variant& v, Prepared& p) {
  if (v.registry) {
    p.registry = std::make_unique<obs::Registry>();
    sys.metrics = p.registry.get();
  }
  sys.time_handlers = v.traced;
  p.pipeline = std::make_unique<core::PipelineSystem>(std::move(sys));
}

std::unique_ptr<Prepared> setup_paper(const std::string& id,
                                      std::uint64_t seed, const Variant& v) {
  auto p = std::make_unique<Prepared>();
  const auto specs = core::paper_experiments();
  core::SystemConfig sys = paper_config(paper_spec(specs, id), seed);
  attach_bank(sys, battery::itsy_kibam_params(), v, *p);
  finish_pipeline(std::move(sys), v, *p);
  return p;
}

/// pipeline_faults' plan: one event of every runtime fault kind, with
/// target, time, length and strength drawn from `seed`. Windows fall in
/// the first ~8 h of a ~15 h run; the sudden death comes later, so the
/// survivor's migration and re-announce path runs on every input.
fault::FaultPlan generated_fault_plan(std::uint64_t seed) {
  Rng rng(seed);
  auto node = [&rng] { return 1 + static_cast<int>(rng.below(2)); };
  auto at = [&rng](double lo, double hi) { return seconds(rng.uniform(lo, hi)); };
  fault::FaultPlan plan;
  auto add = [&plan](fault::FaultKind kind, int target, Seconds start,
                     Seconds length, double magnitude) {
    fault::FaultEvent e;
    e.kind = kind;
    e.target = target;
    e.at = start;
    e.duration = length;
    e.magnitude = magnitude;
    plan.events.push_back(e);
  };
  using fault::FaultKind;
  add(FaultKind::kLinkBlackout, node(), at(2000.0, 28000.0), at(10.0, 60.0),
      1.0);
  add(FaultKind::kBrownout, node(), at(2000.0, 28000.0), at(5.0, 40.0), 1.0);
  add(FaultKind::kBurstLoss, 0, at(2000.0, 28000.0), at(60.0, 300.0),
      rng.uniform(0.05, 0.3));
  add(FaultKind::kAckSuppress, 0, at(2000.0, 28000.0), at(10.0, 60.0), 1.0);
  add(FaultKind::kCorrupt, 0, at(2000.0, 28000.0), at(60.0, 300.0),
      rng.uniform(0.02, 0.2));
  add(FaultKind::kSuddenDeath, node(), at(30000.0, 45000.0), seconds(0.0),
      1.0);
  plan.seed = rng();
  plan.normalize();
  return plan;
}

std::unique_ptr<Prepared> setup_faults(std::uint64_t seed, const Variant& v) {
  auto p = std::make_unique<Prepared>();
  core::ExperimentSpec spec = paper_spec(core::paper_experiments(), "2B");
  spec.fault_plan = generated_fault_plan(seed);
  core::SystemConfig sys = paper_config(spec, seed);
  attach_bank(sys, battery::itsy_rakhmatov_params(), v, *p);
  // Builtins at the library's default (warn) severity: the known
  // soc_monotone defect (see kKnownDefectMonitor) must not stop the run.
  obs::MonitorSpec latency;
  latency.name = "frame_latency_bounded";
  latency.expression = "system.frame_latency_s <= 3600";
  latency.severity = obs::Severity::kFail;
  latency.on_update = true;
  obs::MonitorSpec drops;
  drops.name = "fault_drops_bounded";
  drops.expression = "hub.dropped_by_fault <= hub.transactions";
  drops.severity = obs::Severity::kFail;
  sys.monitors = {latency, drops};
  finish_pipeline(std::move(sys), v, *p);
  return p;
}

std::unique_ptr<Prepared> setup_fleet(int nodes, std::uint64_t seed,
                                      const Variant& v) {
  auto p = std::make_unique<Prepared>();
  core::FleetConfig fc;
  fc.cpu = &cpu::itsy_sa1100();
  fc.link.effective_rate = kilobits_per_second(2000.0);
  fc.link.line_rate = kilobits_per_second(2304.0);
  fc.link.startup_min = milliseconds(1.0);
  fc.link.startup_max = milliseconds(2.0);
  const Coulombs capacity = milliamp_hours(kFleetCapacityMah);
  if (v.traced) {
    BatteryStats* stats = &p->battery;
    fc.battery_factory = [capacity, stats] {
      return std::make_unique<TimingBattery>(
          battery::make_ideal_battery(capacity), stats);
    };
  } else {
    fc.battery_factory = [capacity] {
      return battery::make_ideal_battery(capacity);
    };
  }
  fc.topology = core::Topology::fleet(nodes, nodes / kFleetClusterSize);
  fc.epoch_rounds = kFleetEpochRounds;
  fc.election = core::FleetConfig::Election::kMaxSoc;
  fc.member_levels = {cpu::sa1100_level_mhz(59.0), 0, 0};
  fc.head_levels = {cpu::sa1100_level_mhz(206.4), 0, 0};
  fc.max_rounds = kFleetRounds;
  fc.stall_rounds = 30.0;
  fc.seed = seed;
  if (v.registry) {
    p->registry = std::make_unique<obs::Registry>();
    fc.metrics = p->registry.get();
  }
  p->fleet = std::make_unique<core::FleetSystem>(std::move(fc));
  return p;
}

// --- the workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  /// Distinct inputs derived from one workload seed. The loop cycles
  /// through them, so every input repeats and a repeat that drifts is a
  /// failure. The fleet and pipeline_faults draw more: their run costs
  /// differ by input (fleet: +-12% with the jitter; faults: 5x with the
  /// plan), so more inputs make one seed's mix closer to another's. The
  /// faults' 128 still run about twice each in 30 s.
  int inputs = kHeldOutInputs;
  /// Runs per cycle (pipeline_paper: the six experiments).
  int runs_per_cycle = 1;
  /// Variant of the end-to-end runs.
  Variant plain;
  /// Label of run `r` of input `k`.
  std::string label(int k, int r) const {
    std::string s = "k" + std::to_string(k);
    if (name == "pipeline_paper")
      s += "/" + kPaperIds[static_cast<std::size_t>(r)];
    return s;
  }
  std::unique_ptr<Prepared> setup(std::uint64_t seed, int r,
                                  const Variant& v) const {
    if (name == "pipeline_paper")
      return setup_paper(kPaperIds[static_cast<std::size_t>(r)], seed, v);
    if (name == "fleet_1024") return setup_fleet(kFleetNodes, seed, v);
    return setup_faults(seed, v);
  }
};

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "pipeline_paper") return Workload{name, kHeldOutInputs, 6, {}};
  if (name == "fleet_1024") return Workload{name, 16, 1, {}};
  if (name == "pipeline_faults")
    return Workload{name, 128, 1, {.registry = true}};
  return std::nullopt;
}

// --- measurement --------------------------------------------------------------

struct Timed {
  double setup_s = 0.0;
  double run_s = 0.0;
  Outcome outcome;
};

Timed timed_run(const Workload& w, std::uint64_t seed, int r,
                const Variant& v) {
  Timed t;
  const auto t0 = Clock::now();
  auto prepared = w.setup(seed, r, v);
  t.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  t.outcome = prepared->run();
  t.run_s = seconds_since(t1);
  t.outcome.counters = prepared->counters();
  return t;
}

/// Monitor whose violations on Rakhmatov runs are a known library defect,
/// not a wrong simulated output: the builtin asserts SoC never rises, but
/// RakhmatovBattery::state_of_charge() is the apparent charge, which
/// recovers whenever the load drops (the model's recovery effect). The
/// runner counts these violations and prints them; it does not fail the
/// run for them. Every other violation fails the run.
constexpr std::string_view kKnownDefectMonitor = "builtin.soc_monotone.";

/// Per-run checks: frame conservation, and no monitor violated (apart from
/// the known defect above). Returns the failure reason, or "".
///
/// Conservation is completed + lost <= sent, except under an ack-suppression
/// fault: there the sender writes off frames that were in fact delivered,
/// so write-offs may overlap completions (obs/monitor.h documents this) and
/// only completed <= sent and lost <= sent hold.
std::string check_run(const core::RunResult& r, bool write_offs_overlap) {
  if (write_offs_overlap) {
    if (r.frames_completed > r.frames_sent) return "completed > sent";
    if (r.frames_lost > r.frames_sent) return "lost > sent";
  } else if (r.frames_completed + r.frames_lost > r.frames_sent) {
    return "completed + lost > sent";
  }
  if (r.frames_completed <= 0) return "no frame completed";
  if (r.monitors_failed) return "fail-severity monitor tripped";
  for (const auto& v : r.violations)
    if (!v.monitor.starts_with(kKnownDefectMonitor))
      return "monitor " + v.monitor + " violated at " +
             std::to_string(v.at_s) + " s";
  return "";
}

class Runner {
 public:
  Runner(Workload w, std::uint64_t seed) : w_(std::move(w)), seed_(seed) {}

  /// One checked run: conservation, and the same fingerprint as every
  /// earlier run of the same input (any variant).
  Timed run(int k, int r, const Variant& v) {
    Timed t = timed_run(w_, input_seed(seed_, k), r, v);
    const std::string label = w_.label(k, r);
    std::string failure =
        check_run(t.outcome.result, w_.name == "pipeline_faults");
    const std::uint64_t fp =
        fingerprint(t.outcome.result, t.outcome.head_sequence);
    if (failure.empty() && seed_ == kFig10Seed && label == "k0/2B" &&
        t.outcome.result.frames_completed != kFig10FramesOf2B)
      failure = std::to_string(t.outcome.result.frames_completed) +
                " frames, fig10 has " + std::to_string(kFig10FramesOf2B);
    auto [it, fresh] = fingerprints_.try_emplace(label, fp);
    if (!fresh && it->second != fp) failure = "fingerprint drifted";
    ++runs_per_input_[label];
    if (failure.empty() && t.outcome.result.violations_total > 0) {
      ++known_defect_runs_;
      known_defect_violations_ += t.outcome.result.violations_total;
    }
    count(label, failure);
    return t;
  }

  void count(const std::string& label, const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    ++failed_per_input_[label];
    if (failures_.size() < 10) failures_.push_back(label + ": " + failure);
  }

  void measure(double budget_s, bool traced) {
    const auto start = Clock::now();
    for (long long cycle = 0;; ++cycle) {
      if (cycle >= w_.inputs && seconds_since(start) >= budget_s) break;
      const int k = static_cast<int>(cycle % w_.inputs);
      for (int r = 0; r < w_.runs_per_cycle; ++r) {
        // The traced pass alternates which variant runs first, so warm-up
        // effects do not bias the overhead ratios.
        const bool traced_first = traced && cycle % 2 == 1;
        std::pair<Timed, Timed> twins;
        if (traced_first) twins = trace_runs(k, r);
        const Timed plain = run(k, r, w_.plain);
        setup_s_.push_back(plain.setup_s);
        run_s_.push_back(plain.run_s);
        // Outside the run's timed region: the host's speed right after it.
        // The traced pass reports raw per-layer times and skips this.
        if (!traced) host_factor_.push_back(host_.sample(plain.run_s));
        sim_s_ += plain.outcome.result.sim_end.value();
        if (cycle < w_.inputs) note_heldout(r, plain.outcome.result);
        if (traced && !traced_first) twins = trace_runs(k, r);
        if (traced) add_trace(plain, twins.first, twins.second);
      }
      if (traced && w_.name == "fleet_1024") trace_small_fleet(k);
    }
    if (w_.name != "pipeline_paper") heldout_from_paper();
  }

  void print(bool traced) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << w_.name << "\",\"seed\":" << seed_
       << ",\"inputs\":" << w_.inputs << ",\"attempted\":" << attempted_
       << ",\"failed\":" << failed_ << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      os << (i ? "," : "") << '"' << failures_[i] << '"';
    os << "],\"setup_s\":";
    write_array(os, setup_s_);
    os << ",\"run_s\":";
    write_array(os, run_s_);
    os << ",\"host_factor\":";
    write_array(os, host_factor_);
    os << ",\"ref_checksum\":" << host_.checksum();
    os << ",\"sim_s\":" << sim_s_ << ",\"fingerprints\":{";
    bool first = true;
    for (const auto& [label, fp] : fingerprints_) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(fp));
      os << (first ? "" : ",") << '"' << label << "\":\"" << hex << '"';
      first = false;
    }
    os << "},\"runs_per_input\":";
    write_object(os, runs_per_input_);
    os << ",\"failed_per_input\":";
    write_object(os, failed_per_input_);
    os << ",\"heldout\":[";
    for (std::size_t i = 0; i < heldout_.size(); ++i)
      os << (i ? "," : "") << "{\"id\":\"" << heldout_[i].id
         << "\",\"sim_h\":" << heldout_[i].sim_h
         << ",\"paper_h\":" << heldout_[i].paper_h << '}';
    os << "],\"known_defect\":{\"monitor\":\"" << kKnownDefectMonitor
       << "*\",\"runs\":" << known_defect_runs_
       << ",\"violations\":" << known_defect_violations_ << '}';
    os << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"build_type\":\""
       << E2EBENCH_BUILD_TYPE << "\",\"compiler\":\"" << E2EBENCH_COMPILER
       << '"';
    if (traced) {
      os << ",\"layers\":";
      write_object(os, layers());
      os << ",\"unmeasured\":{";
      first = true;
      for (const auto& [name, why] : unmeasured()) {
        os << (first ? "" : ",") << '"' << name << "\":\"" << why << '"';
        first = false;
      }
      os << '}';
    }
    os << "}\n";
    std::fputs(os.str().c_str(), stdout);
  }

 private:
  struct HeldOut {
    std::string id;
    double sim_h = 0.0;
    double paper_h = 0.0;
  };

  /// Sums over the traced pass; every ratio below is a ratio of sums.
  struct Trace {
    double plain_ns = 0.0;     // end-to-end runs paired with a traced run
    double traced_ns = 0.0;    // instrumented runs
    double metered_ns = 0.0;   // registry-only (or unmetered) twins
    double runs = 0.0;         // traced runs
    Counters sums;             // registry + decorator counters
    double small_plain_ns = 0.0, small_events = 0.0;  // fleet at N=128
  };

  static void write_array(std::ostringstream& os,
                          const std::vector<double>& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << ']';
  }

  /// JSON object of numbers from (name, value) pairs.
  template <typename Pairs>
  static void write_object(std::ostringstream& os, const Pairs& pairs) {
    os << '{';
    bool first = true;
    for (const auto& [name, value] : pairs) {
      os << (first ? "" : ",") << '"' << name << "\":" << value;
      first = false;
    }
    os << '}';
  }

  /// Peak resident memory of this process in MiB: VmHWM, which (unlike
  /// getrusage's ru_maxrss) does not inherit the parent's peak across exec.
  static double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.starts_with("VmHWM:"))
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    std::fprintf(stderr, "no VmHWM in /proc/self/status\n");
    std::exit(2);
  }

  void note_heldout(int r, const core::RunResult& result) {
    if (w_.name != "pipeline_paper") return;
    const std::string& id = kPaperIds[static_cast<std::size_t>(r)];
    if (std::find(kHeldOutIds.begin(), kHeldOutIds.end(), id) ==
        kHeldOutIds.end())
      return;
    add_heldout(id, result);
  }

  void add_heldout(const std::string& id, const core::RunResult& result) {
    const auto specs = core::paper_experiments();
    const core::ExperimentSpec& spec = paper_spec(specs, id);
    // T = F * D (§4.5), D = 2.3 s.
    const double sim_h =
        static_cast<double>(result.frames_completed) * 2.3 / 3600.0;
    heldout_.push_back({id, sim_h, spec.paper.battery_life_hours});
  }

  /// fleet_1024 and pipeline_faults have no paper reference; their
  /// paper_heldout_life_err is the paper pipeline's, run at the same input
  /// seeds outside the timed window.
  void heldout_from_paper() {
    for (int k = 0; k < kHeldOutInputs; ++k)
      for (const auto& id : kHeldOutIds) {
        auto p = setup_paper(id, input_seed(seed_, k), Variant{});
        add_heldout(id, p->run().result);
      }
  }

  /// The traced run of an input and its registry twin: registry bound
  /// over unbound, so pipeline_faults (whose end-to-end runs are already
  /// metered) gets an unmetered twin.
  std::pair<Timed, Timed> trace_runs(int k, int r) {
    Timed traced = run(k, r, {.registry = true, .traced = true});
    Timed twin = run(k, r, {.registry = !w_.plain.registry});
    return {std::move(traced), std::move(twin)};
  }

  void add_trace(const Timed& plain, const Timed& traced, const Timed& twin) {
    tr_.plain_ns += plain.run_s * 1e9;
    tr_.traced_ns += traced.run_s * 1e9;
    tr_.metered_ns += twin.run_s * 1e9;
    tr_.runs += 1.0;
    for (const auto& [name, value] : traced.outcome.counters)
      tr_.sums[name] += value;
    tr_.sums["monitor_checks"] +=
        static_cast<double>(traced.outcome.result.monitor_checks);
    tr_.sums["violations"] +=
        static_cast<double>(traced.outcome.result.violations_total);
    tr_.sums["fault_injections"] +=
        static_cast<double>(traced.outcome.result.fault_injections);
    tr_.sums["migration_retries"] +=
        static_cast<double>(traced.outcome.result.migration_retries);
  }

  /// The same fleet at N=128 (same cluster size, rounds and seeds), for
  /// sim.ns_per_event_scaling. Runs outside the fingerprint table: it is a
  /// different input.
  void trace_small_fleet(int k) {
    const std::uint64_t seed = input_seed(seed_, k);
    auto plain = setup_fleet(kFleetSmallNodes, seed, Variant{});
    const auto t0 = Clock::now();
    const Outcome a = plain->run();
    tr_.small_plain_ns += seconds_since(t0) * 1e9;
    auto metered = setup_fleet(kFleetSmallNodes, seed, {.registry = true});
    const Outcome b = metered->run();
    tr_.small_events += metered->counters()["sim.events.fired"];
    // Checked like every run, but kept out of the fingerprint table: this
    // input exists only in the traced pass.
    const std::string label = "n" + std::to_string(kFleetSmallNodes) + "/k" +
                              std::to_string(k);
    for (const Outcome* o : {&a, &b}) {
      std::string failure = check_run(o->result, false);
      if (failure.empty() && fingerprint(o->result, o->head_sequence) !=
                                 fingerprint(a.result, a.head_sequence))
        failure = "metered run differs from unmetered";
      count(label, failure);
    }
  }

  [[nodiscard]] double sum(const std::string& name) const {
    const auto it = tr_.sums.find(name);
    return it == tr_.sums.end() ? 0.0 : it->second;
  }

  static double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  }

  [[nodiscard]] std::vector<std::pair<std::string, double>> layers() const {
    const double runs = tr_.runs;
    const double events = sum("sim.events.fired");
    const double handler_ns = sum("sim.handler.wall_ns");
    const bool fleet = w_.name == "fleet_1024";
    std::vector<std::pair<std::string, double>> out = {
        {"sim.events_fired", ratio(events, runs)},
        {"sim.ns_per_event", ratio(tr_.plain_ns, events)},
        {"sim.handler_ns_per_event", fleet ? 0.0 : ratio(handler_ns, events)},
        {"sim.dispatch_ns_per_event",
         fleet ? 0.0 : ratio(tr_.traced_ns - handler_ns, events)},
        {"sim.queue_depth_hwm", ratio(sum("sim.queue.depth"), runs)},
        {"sim.cancel_ratio",
         ratio(sum("sim.events.cancelled"), sum("sim.events.scheduled"))},
        {"sim.ns_per_event_scaling",
         fleet ? ratio(ratio(tr_.plain_ns, events),
                       ratio(tr_.small_plain_ns, tr_.small_events))
               : 0.0},
        {"battery.calls", ratio(sum("battery.calls"), runs)},
        {"battery.ns_per_call",
         ratio(sum("battery.ns"), sum("battery.calls"))},
        {"battery.busy_share", ratio(sum("battery.ns"), tr_.traced_ns)},
        {"net.transactions", ratio(sum("hub.transactions"), runs)},
        {"net.payload_bytes", ratio(sum("hub.payload_bytes"), runs)},
        {"net.drop_ratio",
         ratio(sum("hub.dropped_by_fault") + sum("hub.dropped_to_failed"),
               sum("hub.transactions"))},
        {"core.drains_per_event", ratio(sum("node.drains"), events)},
        {"core.frames_lost_ratio",
         ratio(sum("system.frames_lost"), sum("system.frames_sent"))},
        {"core.rotations", ratio(sum("system.rotations"), runs)},
        {"core.migrations", ratio(sum("system.migrations"), runs)},
        {"fleet.elections", ratio(sum("fleet.elections"), runs)},
        {"fleet.head_switch_ratio",
         ratio(sum("fleet.head_switches"), sum("fleet.elections"))},
        {"obs.monitor_checks_per_event", ratio(sum("monitor_checks"), events)},
        {"obs.violations", ratio(sum("violations"), runs)},
        {"obs.metered_cost_ratio",
         w_.plain.registry ? ratio(tr_.plain_ns, tr_.metered_ns)
                           : ratio(tr_.metered_ns, tr_.plain_ns)},
        {"fault.injections", ratio(sum("fault_injections"), runs)},
        {"fault.detection_latency_s",
         ratio(sum("system.detection_latency_s"), sum("system.detections"))},
        {"fault.migration_retries", ratio(sum("migration_retries"), runs)},
        {"trace.overhead_ratio", ratio(tr_.traced_ns, tr_.plain_ns)},
    };
    return out;
  }

  /// Per-layer metrics this workload cannot report from outside (printed
  /// as 0 in "layers"), with the reason.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> unmeasured()
      const {
    if (w_.name == "fleet_1024")
      return {{"sim.handler_ns_per_event",
               "FleetConfig has no time_handlers; the fleet engine is private"},
              {"sim.dispatch_ns_per_event",
               "needs handler time, which the fleet does not expose"}};
    return {{"sim.ns_per_event_scaling",
             "a fleet-size ratio; measured on fleet_1024 only"}};
  }

  Workload w_;
  std::uint64_t seed_;
  long long attempted_ = 0;
  long long failed_ = 0;
  long long known_defect_runs_ = 0;
  long long known_defect_violations_ = 0;
  std::vector<std::string> failures_;
  std::vector<double> setup_s_, run_s_, host_factor_;
  HostSpeed host_;
  double sim_s_ = 0.0;
  std::map<std::string, std::uint64_t> fingerprints_;
  std::map<std::string, long long> runs_per_input_;
  std::map<std::string, long long> failed_per_input_;
  std::vector<HeldOut> heldout_;
  Trace tr_;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench_runner --workload "
               "pipeline_paper|fleet_1024|pipeline_faults --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds_budget = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      errno = 0;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
          value.front() == '-')
        return usage("bad --seed");
    } else if (key == "--seconds") {
      seconds_budget = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || seconds_budget <= 0.0)
        return usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      trace = value == "1" ? 1 : 0;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  const auto w = find_workload(workload);
  if (!w) return usage("unknown --workload");
  if (seconds_budget <= 0.0 || trace < 0) return usage("missing flag");

  Runner runner(*w, seed);
  runner.measure(seconds_budget, trace == 1);
  runner.print(trace == 1);
  return 0;
}
