// Reproduces Figure 2: theoretical maximum vs measured TCP/UDP
// throughput at 11 Mbps, m = 512 bytes, with and without RTS/CTS.
//
// Paper shape: UDP lands very close to the analytical bound; TCP is
// clearly below it (TCP-ACK airtime); RTS/CTS costs both some capacity.
//
// Runs as a parallel campaign: the rts × transport grid fans out over
// all cores; aggregation is deterministic regardless of worker count.

#include <iostream>

#include "analysis/throughput_model.hpp"
#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

using namespace adhoc;

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv);
  const bench::WallTimer timer;

  experiments::ExperimentConfig cfg;
  cfg.seeds = opt.seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(6);

  const campaign::CampaignEngine engine{bench::engine_config(opt)};
  const auto def = experiments::fig2_campaign(cfg);
  const auto result = engine.run(def.plan, def.run);
  const auto points = campaign::aggregate_by_point(result);

  report::Scorecard card{"fig2"};
  card.add_campaign(result);

  const analysis::ThroughputModel model{analysis::Assumptions::standard()};
  std::cout << "=== Figure 2: ideal vs measured throughput, 11 Mbps, m=512 B ===\n\n";
  stats::Table table({"access", "ideal (Mbps)", "UDP real", "UDP/ideal %", "TCP real",
                      "TCP/ideal %"});
  stats::CsvWriter csv{"fig2.csv"};
  csv.header({"rts", "ideal_mbps", "udp_mbps", "tcp_mbps"});
  for (const bool rts : {false, true}) {
    const double ideal = rts ? model.max_throughput_rts_mbps(512, phy::Rate::kR11)
                             : model.max_throughput_basic_mbps(512, phy::Rate::kR11);
    // fig2_campaign expands every (rts, tcp) point, so the lookups hit.
    const double udp = bench::find_point(points, rts, false)->metrics.at("kbps").mean() / 1000.0;
    const double tcp = bench::find_point(points, rts, true)->metrics.at("kbps").mean() / 1000.0;
    table.add_row({rts ? "RTS/CTS" : "no RTS/CTS", stats::Table::fmt(ideal),
                   stats::Table::fmt(udp), stats::Table::fmt(udp / ideal * 100.0, 1),
                   stats::Table::fmt(tcp), stats::Table::fmt(tcp / ideal * 100.0, 1)});
    csv.numeric_row({rts ? 1.0 : 0.0, ideal, udp, tcp});
    // UDP is scored against the analytical bound (the paper's "very
    // close to ideal" claim); TCP has no crisp published number, so its
    // cells are gated by the checked-in baseline alone.
    const std::string access = rts ? "rts" : "basic";
    card.add_cell("udp_mbps/" + access, udp, ideal, "Mbps");
    card.add_cell("tcp_mbps/" + access, tcp, std::nullopt, "Mbps");
  }
  std::cout << table.to_string();
  std::cout << "\nPaper shape check: UDP ~= ideal, TCP visibly below "
               "(paper Fig. 2 shows UDP within a few % of ideal).\n";
  std::cout << "(series written to fig2.csv)\n";

  // Paper §3.1, last paragraph: "Similar results have been also obtained
  // ... when the NIC data rate is set to 1, 2 or 5.5 Mbps."
  std::cout << "\n--- other NIC rates, basic access (paper: 'similar results') ---\n\n";
  const auto rates_def = experiments::two_node_rates_campaign(cfg);
  const auto rates_result = engine.run(rates_def.plan, rates_def.run);
  const auto rate_points = campaign::aggregate_by_point(rates_result);
  card.add_campaign(rates_result);
  card.add_points(rate_points, {{"kbps", "kbps"}});
  stats::Table others({"rate", "ideal (Mbps)", "UDP real", "TCP real"});
  for (const phy::Rate rate : {phy::Rate::kR1, phy::Rate::kR2, phy::Rate::kR5_5}) {
    const double mbps = phy::rate_mbps(rate);
    double udp = 0.0;
    double tcp = 0.0;
    for (const auto& p : rate_points) {
      bool is_rate = false;
      bool is_tcp = false;
      for (const auto& [name, value] : p.params) {
        if (name == "rate_mbps" && value == mbps) is_rate = true;
        if (name == "tcp" && value != 0.0) is_tcp = true;  // NOLINT-ADHOC(fp-compare) 0/1 flag
      }
      if (is_rate) (is_tcp ? tcp : udp) = p.metrics.at("kbps").mean() / 1000.0;
    }
    others.add_row({std::string(phy::rate_name(rate)),
                    stats::Table::fmt(model.max_throughput_basic_mbps(512, rate)),
                    stats::Table::fmt(udp), stats::Table::fmt(tcp)});
  }
  std::cout << others.to_string();
  return bench::finish_bench(card, opt, timer);
}
