#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace adhoc::obs {
namespace {

TEST(TraceSink, RecordsInPublicationOrder) {
  TraceSink sink{8};
  sink.instant(sim::Time::us(1), Layer::kPhy, 0, EventKind::kPhyRxOk, 11.0, -60.0);
  sink.span(sim::Time::us(2), sim::Time::us(5), Layer::kPhy, 1, EventKind::kPhyTx, 11.0, 4096.0);
  sink.instant(sim::Time::us(3), Layer::kMac, 0, EventKind::kMacTxStart, 7.0, 512.0);

  const auto ev = sink.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].kind, EventKind::kPhyRxOk);
  EXPECT_EQ(ev[1].dur, sim::Time::us(5));
  EXPECT_EQ(ev[2].layer, Layer::kMac);
  EXPECT_EQ(sink.total_recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops) {
  TraceSink sink{4};
  for (int i = 0; i < 10; ++i) {
    sink.instant(sim::Time::us(i), Layer::kMac, 0, EventKind::kMacRxOk,
                 static_cast<double>(i), 0.0);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto ev = sink.events();
  ASSERT_EQ(ev.size(), 4u);
  // The tail of the timeline survives: events 6..9.
  EXPECT_EQ(ev.front().a, 6.0);
  EXPECT_EQ(ev.back().a, 9.0);
}

TEST(TraceSink, ClearResets) {
  TraceSink sink{4};
  sink.instant(sim::Time::us(1), Layer::kApp, 2, EventKind::kMacTxStart);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, ChromeTraceShape) {
  TraceSink sink{16};
  sink.span(sim::Time::us(10), sim::Time::us(100), Layer::kPhy, 1, EventKind::kPhyTx, 11.0,
            4096.0);
  sink.instant(sim::Time::us(50), Layer::kMac, 1, EventKind::kMacAckTimeout, 3.0, 512.0);
  sink.instant(sim::Time::us(60), Layer::kTransport, 0, EventKind::kTcpCwnd, 2048.0, 65535.0);

  std::ostringstream out;
  sink.write_chrome_trace(out);
  const std::string json = out.str();
  // Metadata names the per-station process and per-layer thread tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"sta1\""), std::string::npos);
  // One duration, one instant, one counter event.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"tcp_cwnd\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(TraceSink, CsvExport) {
  TraceSink sink{8};
  sink.instant(sim::Time::us(100), Layer::kMac, 1, EventKind::kMacTxStart, 7, 512);
  const std::string path = ::testing::TempDir() + "/trace_sink_test.csv";
  sink.write_csv(path);
  std::ifstream in{path};
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  std::remove(path.c_str());
  EXPECT_EQ(header, "time_us,dur_us,track,layer,event,a,b");
  EXPECT_EQ(row, "100,0,1,mac,mac_tx,7,512");
}

TEST(TraceSink, NamesAndCounterKinds) {
  EXPECT_EQ(layer_name(Layer::kPhy), "phy");
  EXPECT_EQ(layer_name(Layer::kTransport), "transport");
  EXPECT_EQ(event_kind_name(EventKind::kPhyCollision), "phy_collision");
  EXPECT_EQ(event_kind_name(EventKind::kTcpFastRetransmit), "tcp_fast_retransmit");
  EXPECT_EQ(event_kind_name(EventKind::kMacDrop), "mac_drop");
  EXPECT_TRUE(event_kind_is_counter(EventKind::kTcpCwnd));
  EXPECT_FALSE(event_kind_is_counter(EventKind::kMacTxStart));
}

}  // namespace
}  // namespace adhoc::obs
