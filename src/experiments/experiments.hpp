#pragma once
// Reproduction experiments: one function per table/figure of the paper.
// Each builds fresh networks per seed, runs the workload, and returns
// aggregated results. Benches print them; integration tests assert the
// paper's qualitative shape.

#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/observer.hpp"
#include "phy/rates.hpp"
#include "phy/shadowing.hpp"
#include "scenario/runner.hpp"
#include "stats/summary.hpp"

namespace adhoc::experiments {

struct ExperimentConfig {
  std::vector<std::uint64_t> seeds{1, 2, 3};
  sim::Time warmup = sim::Time::sec(1);
  sim::Time measure = sim::Time::sec(8);
  /// Shadowing for the four-station runs. Milder than the range sweeps:
  /// the paper's throughput stations sit "within their transmission
  /// range" on reliable links, while 25 m at 11 Mbps is only ~2.6 dB
  /// above sensitivity — heavy slow fading there would model a different
  /// (marginal-link) experiment than the one the paper ran.
  /// Small sigma + short correlation models residual fast fading on
  /// otherwise-stable in-range links; MAC retries then see fresh channel
  /// draws, as on the real testbed.
  phy::ShadowingParams shadowing{1.5, sim::Time::ms(20), 0.0};
  /// Observability for campaign replications: each run gets its own
  /// obs::RunObserver at this level and its snapshot rides the run_end
  /// telemetry record. kOff (default) costs nothing.
  obs::ObsLevel obs_level = obs::ObsLevel::kOff;
  /// Scripted disturbance timeline, installed on every replication's
  /// network after topology build (Network::install_faults). Empty
  /// (default) installs nothing, leaving no-fault runs bit-identical.
  /// Event times are absolute simulation time (warmup included).
  faults::FaultPlan faults;
};

/// Mean and 95% CI half-width over seeds.
struct Measured {
  double mean = 0.0;
  double ci95 = 0.0;
  [[nodiscard]] static Measured from(const stats::Summary& s) {
    return {s.mean(), s.ci95_halfwidth()};
  }
};

// ------------------------------------------------------ two-node experiments

struct TwoNodeSpec {
  phy::Rate rate = phy::Rate::kR11;
  bool rts = false;
  scenario::Transport transport = scenario::Transport::kUdp;
  std::uint32_t payload_bytes = 512;
  double distance_m = 10.0;
};

/// Steady-state goodput (kbps) of a single saturated session.
Measured two_node_throughput(const TwoNodeSpec& spec, const ExperimentConfig& cfg);

// --------------------------------------------------------- range experiments

struct LossSweepSpec {
  phy::Rate rate = phy::Rate::kR1;
  std::vector<double> distances_m;
  std::uint32_t probes = 400;
  std::uint32_t payload_bytes = 512;
  /// Weather shift for "different day" runs (Fig. 4).
  double day_offset_db = 0.0;
  /// Field shadowing for the sweep itself; the paper's Fig. 3 sigmoids
  /// imply a few dB of slow fading.
  phy::ShadowingParams shadowing{3.5, sim::Time::ms(500), 0.0};
};

struct LossPoint {
  double distance_m = 0.0;
  double loss = 0.0;
};

/// Figure 3/4: mean packet-loss rate vs distance (broadcast probes at the
/// rate under test, averaged over seeds).
std::vector<LossPoint> loss_sweep(const LossSweepSpec& spec, const ExperimentConfig& cfg);

/// The default distance grid of Figure 3 (20..150 m in 10 m steps).
std::vector<double> fig3_distances();

/// Table 3: estimated transmission range — the distance where the mean
/// loss curve crosses `loss_threshold` (linear interpolation).
double estimate_tx_range(phy::Rate rate, const ExperimentConfig& cfg,
                         double loss_threshold = 0.5);

// --------------------------------------------------- four-station scenarios

struct FourStationSpec {
  double d12_m = 25.0;
  double d23_m = 82.5;
  double d34_m = 25.0;
  phy::Rate rate = phy::Rate::kR11;
  bool rts = false;
  scenario::Transport transport = scenario::Transport::kUdp;
  /// false: session 2 is S3->S4 (Figs. 6-9). true: S4->S3 (the symmetric
  /// scenario of Fig. 10).
  bool session2_reversed = false;
  std::uint32_t payload_bytes = 512;
};

struct FourStationResult {
  Measured session1_kbps;  // S1 -> S2
  Measured session2_kbps;  // S3 -> S4 (or S4 -> S3)
};

FourStationResult four_station(const FourStationSpec& spec, const ExperimentConfig& cfg);

/// Ready-made paper scenarios.
FourStationSpec fig7_spec(bool rts, scenario::Transport t);   // 11 Mbps, 25/82.5/25
FourStationSpec fig9_spec(bool rts, scenario::Transport t);   // 2 Mbps, 25/92.5/25
FourStationSpec fig11_spec(bool rts, scenario::Transport t);  // symmetric, 11 Mbps, 25/62.5/25
FourStationSpec fig12_spec(bool rts, scenario::Transport t);  // symmetric, 2 Mbps, 25/62.5/25

// -------------------------------------------------- saturation (extension)

/// n saturated stations in one collision domain, each sending 512-byte
/// UDP datagrams to its own receiver. Returns aggregate application
/// goodput in Mbps — the quantity Bianchi's model predicts
/// (analysis/bianchi.hpp).
struct SaturationSpec {
  std::uint32_t n_stations = 5;
  phy::Rate rate = phy::Rate::kR11;
  bool rts = false;
  std::uint32_t payload_bytes = 512;
};

Measured saturation_throughput(const SaturationSpec& spec, const ExperimentConfig& cfg);

// ---------------------------------------------- single-replication runs
//
// One (spec, seed) simulation each, building a private Simulator — the
// unit of work the campaign engine parallelises (see campaigns.hpp).
// The aggregate functions above fold these over cfg.seeds.
//
// Passing an obs::RunObserver wires it across all layers of the run's
// network (Network::attach_observer) and finalizes it — scheduler
// profile and trace health included — before the function returns.

struct SingleRun {
  double value = 0.0;        ///< experiment-specific metric
  std::uint64_t events = 0;  ///< scheduler events executed
};

/// Goodput (kbps) of one two-node replication.
SingleRun two_node_run(const TwoNodeSpec& spec, const ExperimentConfig& cfg, std::uint64_t seed,
                       obs::RunObserver* obs = nullptr);

struct FourStationRun {
  double session1_kbps = 0.0;
  double session2_kbps = 0.0;
  std::uint64_t events = 0;
};
FourStationRun four_station_run(const FourStationSpec& spec, const ExperimentConfig& cfg,
                                std::uint64_t seed, obs::RunObserver* obs = nullptr);
/// The same replication on a caller-built network configuration (the
/// ablation campaigns' PHY/MAC knobs): `nc` replaces the MAC, PHY and
/// shadowing that spec.rate, spec.rts and cfg.shadowing would select;
/// the layout, sessions, payload, windows and faults still come from
/// `spec` and `cfg`.
FourStationRun four_station_run(const FourStationSpec& spec, const scenario::NetworkConfig& nc,
                                const ExperimentConfig& cfg, std::uint64_t seed,
                                obs::RunObserver* obs = nullptr);

/// Probe loss rate at a single distance for one seed.
SingleRun loss_run(const LossSweepSpec& spec, double distance_m, const ExperimentConfig& cfg,
                   std::uint64_t seed, obs::RunObserver* obs = nullptr);

/// Aggregate saturation goodput (kbps) for one seed.
SingleRun saturation_run(const SaturationSpec& spec, const ExperimentConfig& cfg,
                         std::uint64_t seed, obs::RunObserver* obs = nullptr);

// ------------------------------------------------------------------ helpers

/// MacParams for a given data rate / RTS setting, paper defaults.
mac::MacParams mac_params_for(phy::Rate rate, bool rts);

}  // namespace adhoc::experiments
