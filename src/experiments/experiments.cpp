#include "experiments/experiments.hpp"

#include <algorithm>

#include "app/loss_probe.hpp"
#include "scenario/network.hpp"

namespace adhoc::experiments {

mac::MacParams mac_params_for(phy::Rate rate, bool rts) {
  mac::MacParams m;
  m.data_rate = rate;
  m.control_rate = phy::Rate::kR2;  // paper: RTS at 2 Mbps (1 Mbps also seen)
  m.rts_threshold_bytes = rts ? 0 : 1u << 20;
  return m;
}

namespace {

scenario::NetworkConfig net_config_for(phy::Rate rate, bool rts,
                                       std::optional<phy::ShadowingParams> shadowing) {
  scenario::NetworkConfig cfg;
  cfg.mac = mac_params_for(rate, rts);
  cfg.shadowing = shadowing;
  return cfg;
}

}  // namespace

// ------------------------------------------------------ two-node experiments

SingleRun two_node_run(const TwoNodeSpec& spec, const ExperimentConfig& cfg, std::uint64_t seed,
                       obs::RunObserver* obs) {
  sim::Simulator sim{seed};
  // Short, clean link: the deterministic channel isolates MAC overhead,
  // matching the paper's "stations well within range" setup.
  scenario::Network net{sim, net_config_for(spec.rate, spec.rts, std::nullopt)};
  if (obs != nullptr) net.attach_observer(*obs);
  net.add_node({0.0, 0.0});
  net.add_node({spec.distance_m, 0.0});
  if (!cfg.faults.empty()) net.install_faults(cfg.faults);

  scenario::RunConfig rc;
  rc.warmup = cfg.warmup;
  rc.measure = cfg.measure;
  rc.payload_bytes = spec.payload_bytes;
  const auto result = scenario::run_sessions(net, {{0, 1, spec.transport}}, rc);
  if (obs != nullptr) obs->finalize(sim);
  return {result.sessions[0].kbps, sim.scheduler().total_executed()};
}

Measured two_node_throughput(const TwoNodeSpec& spec, const ExperimentConfig& cfg) {
  stats::Summary kbps;
  for (const std::uint64_t seed : cfg.seeds) {
    kbps.add(two_node_run(spec, cfg, seed).value);
  }
  return Measured::from(kbps);
}

// --------------------------------------------------------- range experiments

std::vector<double> fig3_distances() {
  std::vector<double> d;
  for (double x = 20.0; x <= 150.0; x += 10.0) d.push_back(x);
  return d;
}

SingleRun loss_run(const LossSweepSpec& spec, double distance_m, const ExperimentConfig& cfg,
                   std::uint64_t seed, obs::RunObserver* obs) {
  // Probes run on their own clock: cfg.warmup/measure do not apply.
  const sim::Time interval = sim::Time::ms(20);
  sim::Simulator sim{seed};
  phy::ShadowingParams shadowing = spec.shadowing;
  shadowing.day_offset_db = spec.day_offset_db;
  scenario::NetworkConfig nc = net_config_for(spec.rate, false, shadowing);
  // Probes are broadcast; they must ride the rate under test.
  nc.mac.broadcast_rate = spec.rate;
  scenario::Network net{sim, nc};
  if (obs != nullptr) net.attach_observer(*obs);
  net.add_node({0.0, 0.0});
  net.add_node({distance_m, 0.0});
  if (!cfg.faults.empty()) net.install_faults(cfg.faults);

  auto& tx_sock = net.udp(0).open(4000);
  app::ProbeSender sender{sim, tx_sock, 4001, spec.payload_bytes, interval};
  app::ProbeReceiver receiver{net.udp(1), 4001};
  sender.start(sim::Time::ms(5));
  sim.run_until(sim::Time::ms(5) + interval * spec.probes);
  sender.stop();
  sim.run_until(sim.now() + sim::Time::ms(50));  // drain in-flight probes
  if (obs != nullptr) obs->finalize(sim);
  return {receiver.loss_rate(sender.sent()), sim.scheduler().total_executed()};
}

std::vector<LossPoint> loss_sweep(const LossSweepSpec& spec, const ExperimentConfig& cfg) {
  std::vector<LossPoint> out;
  for (const double distance : spec.distances_m) {
    stats::Summary loss;
    for (const std::uint64_t seed : cfg.seeds) {
      loss.add(loss_run(spec, distance, cfg, seed).value);
    }
    out.push_back({distance, loss.mean()});
  }
  return out;
}

double estimate_tx_range(phy::Rate rate, const ExperimentConfig& cfg, double loss_threshold) {
  // Fine grid around the expected range, then interpolate the crossing.
  LossSweepSpec spec;
  spec.rate = rate;
  for (double d = 10.0; d <= 170.0; d += 5.0) spec.distances_m.push_back(d);
  const auto curve = loss_sweep(spec, cfg);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const auto& lo = curve[i - 1];
    const auto& hi = curve[i];
    if (lo.loss <= loss_threshold && hi.loss > loss_threshold) {
      const double t = (loss_threshold - lo.loss) / (hi.loss - lo.loss);
      return lo.distance_m + t * (hi.distance_m - lo.distance_m);
    }
  }
  // Curve never crossed: report the last distance with loss below the
  // threshold (range beyond the grid) or the grid start.
  return curve.back().loss <= loss_threshold ? curve.back().distance_m
                                             : curve.front().distance_m;
}

// --------------------------------------------------- four-station scenarios

FourStationRun four_station_run(const FourStationSpec& spec, const ExperimentConfig& cfg,
                                std::uint64_t seed, obs::RunObserver* obs) {
  return four_station_run(spec, net_config_for(spec.rate, spec.rts, cfg.shadowing), cfg, seed,
                          obs);
}

FourStationRun four_station_run(const FourStationSpec& spec, const scenario::NetworkConfig& nc,
                                const ExperimentConfig& cfg, std::uint64_t seed,
                                obs::RunObserver* obs) {
  sim::Simulator sim{seed};
  scenario::Network net{sim, nc};
  if (obs != nullptr) net.attach_observer(*obs);
  const double x2 = spec.d12_m;
  const double x3 = spec.d12_m + spec.d23_m;
  const double x4 = spec.d12_m + spec.d23_m + spec.d34_m;
  net.add_node({0.0, 0.0});  // S1
  net.add_node({x2, 0.0});   // S2
  net.add_node({x3, 0.0});   // S3
  net.add_node({x4, 0.0});   // S4
  if (!cfg.faults.empty()) net.install_faults(cfg.faults);

  scenario::RunConfig rc;
  rc.warmup = cfg.warmup;
  rc.measure = cfg.measure;
  rc.payload_bytes = spec.payload_bytes;
  std::vector<scenario::SessionSpec> sessions;
  sessions.push_back({0, 1, spec.transport});  // S1 -> S2
  if (spec.session2_reversed) {
    sessions.push_back({3, 2, spec.transport});  // S4 -> S3
  } else {
    sessions.push_back({2, 3, spec.transport});  // S3 -> S4
  }
  const auto result = scenario::run_sessions(net, sessions, rc);
  if (obs != nullptr) obs->finalize(sim);
  return {result.sessions[0].kbps, result.sessions[1].kbps, sim.scheduler().total_executed()};
}

FourStationResult four_station(const FourStationSpec& spec, const ExperimentConfig& cfg) {
  stats::Summary s1;
  stats::Summary s2;
  for (const std::uint64_t seed : cfg.seeds) {
    const auto run = four_station_run(spec, cfg, seed);
    s1.add(run.session1_kbps);
    s2.add(run.session2_kbps);
  }
  return {Measured::from(s1), Measured::from(s2)};
}

// -------------------------------------------------- saturation (extension)

SingleRun saturation_run(const SaturationSpec& spec, const ExperimentConfig& cfg,
                         std::uint64_t seed, obs::RunObserver* obs) {
  sim::Simulator sim{seed};
  // Deterministic channel, everyone well inside everyone's range:
  // Bianchi's single-collision-domain, ideal-channel assumptions.
  scenario::Network net{sim, net_config_for(spec.rate, spec.rts, std::nullopt)};
  if (obs != nullptr) net.attach_observer(*obs);
  std::vector<scenario::SessionSpec> sessions;
  for (std::uint32_t i = 0; i < spec.n_stations; ++i) {
    // Senders on a 10 m circle, receivers clustered at the center:
    // every receiver is (nearly) equidistant from every sender, so
    // overlapping transmissions are mutually destructive — Bianchi's
    // collision assumption. Capture cannot rescue a collision here.
    const double angle = 2.0 * 3.14159265358979323846 * i /
                         std::max(spec.n_stations, 1u);
    net.add_node({10.0 * std::cos(angle), 10.0 * std::sin(angle)});  // sender
    net.add_node({0.3 * std::cos(angle), 0.3 * std::sin(angle)});    // receiver
    sessions.push_back({2 * i, 2 * i + 1, scenario::Transport::kUdp});
  }
  if (!cfg.faults.empty()) net.install_faults(cfg.faults);
  scenario::RunConfig rc;
  rc.warmup = cfg.warmup;
  rc.measure = cfg.measure;
  rc.payload_bytes = spec.payload_bytes;
  const auto result = scenario::run_sessions(net, sessions, rc);
  if (obs != nullptr) obs->finalize(sim);
  double sum = 0.0;
  for (const auto& s : result.sessions) sum += s.kbps;
  return {sum, sim.scheduler().total_executed()};
}

Measured saturation_throughput(const SaturationSpec& spec, const ExperimentConfig& cfg) {
  stats::Summary total_kbps;
  for (const std::uint64_t seed : cfg.seeds) {
    total_kbps.add(saturation_run(spec, cfg, seed).value);
  }
  Measured out = Measured::from(total_kbps);
  out.mean /= 1000.0;  // kbps -> Mbps
  out.ci95 /= 1000.0;
  return out;
}

FourStationSpec fig7_spec(bool rts, scenario::Transport t) {
  return FourStationSpec{25.0, 82.5, 25.0, phy::Rate::kR11, rts, t, false, 512};
}

FourStationSpec fig9_spec(bool rts, scenario::Transport t) {
  return FourStationSpec{25.0, 92.5, 25.0, phy::Rate::kR2, rts, t, false, 512};
}

FourStationSpec fig11_spec(bool rts, scenario::Transport t) {
  return FourStationSpec{25.0, 62.5, 25.0, phy::Rate::kR11, rts, t, true, 512};
}

FourStationSpec fig12_spec(bool rts, scenario::Transport t) {
  return FourStationSpec{25.0, 62.5, 25.0, phy::Rate::kR2, rts, t, true, 512};
}

}  // namespace adhoc::experiments
