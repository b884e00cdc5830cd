// Integration: single saturated session vs the analytical bound
// (paper §3.1, Figure 2).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "analysis/throughput_model.hpp"
#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"

namespace adhoc::experiments {
namespace {

ExperimentConfig quick_cfg() {
  ExperimentConfig cfg;
  cfg.seeds = {1};
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(4);
  return cfg;
}

TEST(TwoNodeIntegration, UdpApproachesAnalyticalBoundAt11Mbps) {
  const analysis::ThroughputModel model{analysis::Assumptions::standard()};
  const double bound_kbps = model.max_throughput_basic_mbps(512, phy::Rate::kR11) * 1000.0;
  const auto measured =
      two_node_throughput({phy::Rate::kR11, false, scenario::Transport::kUdp, 512, 10.0},
                          quick_cfg());
  // The paper finds UDP "very close" to the bound; allow 70-102%.
  EXPECT_LT(measured.mean, bound_kbps * 1.02);
  EXPECT_GT(measured.mean, bound_kbps * 0.70);
}

TEST(TwoNodeIntegration, TcpStaysClearlyBelowUdp) {
  const auto udp = two_node_throughput(
      {phy::Rate::kR11, false, scenario::Transport::kUdp, 512, 10.0}, quick_cfg());
  const auto tcp = two_node_throughput(
      {phy::Rate::kR11, false, scenario::Transport::kTcp, 512, 10.0}, quick_cfg());
  // TCP pays for its own ACK airtime: visibly below UDP (paper Fig. 2).
  EXPECT_LT(tcp.mean, udp.mean * 0.95);
  EXPECT_GT(tcp.mean, udp.mean * 0.4);  // but still in the same regime
}

TEST(TwoNodeIntegration, RtsCtsCostsThroughput) {
  const auto basic = two_node_throughput(
      {phy::Rate::kR11, false, scenario::Transport::kUdp, 512, 10.0}, quick_cfg());
  const auto rts = two_node_throughput(
      {phy::Rate::kR11, true, scenario::Transport::kUdp, 512, 10.0}, quick_cfg());
  EXPECT_LT(rts.mean, basic.mean);
  // But not catastrophically: the exchange only adds control airtime.
  EXPECT_GT(rts.mean, basic.mean * 0.6);
}

TEST(TwoNodeIntegration, Fig2ShapeHolds) {
  // The bench_fig2 path: the fig2 grid on the campaign engine, folded
  // per point. Keys are campaign::point_id strings, e.g. "rts=1,tcp=0".
  const auto def = fig2_campaign(quick_cfg());
  const campaign::CampaignEngine engine{campaign::EngineConfig{1}};
  std::map<std::string, double> mbps;
  for (const auto& p : campaign::aggregate_by_point(engine.run(def.plan, def.run))) {
    mbps[campaign::point_id(p.params)] = p.metrics.at("kbps").mean() / 1000.0;
  }
  ASSERT_EQ(mbps.size(), 4u);
  const analysis::ThroughputModel model{analysis::Assumptions::standard()};
  const double ideal_basic = model.max_throughput_basic_mbps(512, phy::Rate::kR11);
  const double ideal_rts = model.max_throughput_rts_mbps(512, phy::Rate::kR11);
  for (const auto& [access, ideal] :
       {std::pair{"rts=0", ideal_basic}, std::pair{"rts=1", ideal_rts}}) {
    const double udp = mbps.at(std::string{access} + ",tcp=0");
    const double tcp = mbps.at(std::string{access} + ",tcp=1");
    // Ideal >= UDP > TCP, all positive.
    EXPECT_GT(ideal, 0.0);
    EXPECT_LT(udp, ideal * 1.02);
    EXPECT_LT(tcp, udp);
    EXPECT_GT(tcp, 0.5);
  }
  // no-RTS beats RTS in both ideal and measured UDP.
  EXPECT_GT(ideal_basic, ideal_rts);
  EXPECT_GT(mbps.at("rts=0,tcp=0"), mbps.at("rts=1,tcp=0"));
}

}  // namespace
}  // namespace adhoc::experiments
