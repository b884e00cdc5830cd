// Dcf's MAC event emission into an obs::TraceSink.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "mac/dcf.hpp"
#include "obs/trace.hpp"
#include "phy/calibration.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace adhoc::mac {
namespace {

std::size_t count_mac(const obs::TraceSink& sink, obs::EventKind kind) {
  const auto events = sink.events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [kind](const obs::Event& e) {
        return e.layer == obs::Layer::kMac && e.kind == kind;
      }));
}

TEST(DcfTraceSink, EndToEndThroughDcf) {
  sim::Simulator sim{9};
  phy::Medium medium{sim, phy::default_outdoor_model()};
  const auto params = phy::paper_calibrated_params(phy::default_outdoor_model());
  phy::Radio r0{sim, medium, 0, params, {0, 0}};
  phy::Radio r1{sim, medium, 1, params, {20, 0}};
  Dcf d0{sim, r0, MacAddress::from_station(0), {}};
  Dcf d1{sim, r1, MacAddress::from_station(1), {}};
  obs::TraceSink sink{1024};
  d0.set_trace_sink(&sink);
  d1.set_trace_sink(&sink);

  d0.enqueue(d1.address(), std::make_shared<int>(0), 512);
  sim.run_until(sim::Time::ms(50));

  // Sender TX data, receiver RX data, receiver TX ack, sender RX ack.
  EXPECT_EQ(count_mac(sink, obs::EventKind::kMacTxStart), 2u);
  EXPECT_EQ(count_mac(sink, obs::EventKind::kMacRxOk), 2u);
  EXPECT_EQ(count_mac(sink, obs::EventKind::kMacAckTimeout), 0u);
}

TEST(DcfTraceSink, RecordsTimeoutsAndDrops) {
  sim::Simulator sim{9};
  phy::Medium medium{sim, phy::default_outdoor_model()};
  const auto params = phy::paper_calibrated_params(phy::default_outdoor_model());
  phy::Radio r0{sim, medium, 0, params, {0, 0}};
  phy::Radio r1{sim, medium, 1, params, {400, 0}};  // unreachable
  Dcf d0{sim, r0, MacAddress::from_station(0), {}};
  Dcf d1{sim, r1, MacAddress::from_station(1), {}};
  obs::TraceSink sink{1024};
  d0.set_trace_sink(&sink);

  d0.enqueue(d1.address(), std::make_shared<int>(0), 512);
  sim.run_until(sim::Time::sec(2));
  EXPECT_EQ(count_mac(sink, obs::EventKind::kMacAckTimeout), 7u);
  EXPECT_EQ(count_mac(sink, obs::EventKind::kMacDrop), 1u);
}

}  // namespace
}  // namespace adhoc::mac
