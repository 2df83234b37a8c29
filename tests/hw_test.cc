#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "src/hw/topology.h"
#include "src/util/rng.h"
#include "src/hw/transfer_manager.h"
#include "src/sim/simulator.h"
#include "tests/transfer_probe.h"

namespace harmony {
namespace {

ServerConfig FourGpuServer() {
  ServerConfig config;
  config.num_gpus = 4;
  config.gpus_per_switch = 4;
  return config;
}

TEST(TopologyTest, CommodityServerShape) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  EXPECT_EQ(topo.num_gpus(), 4);
  // host + 1 switch + 4 gpus
  EXPECT_EQ(topo.num_nodes(), 6);
  // 5 duplex links = 10 directed
  EXPECT_EQ(topo.num_links(), 10);
}

TEST(TopologyTest, GpuToHostRouteCrossesSwitch) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  const auto& route = topo.Route(topo.gpu_node(0), topo.host_node());
  EXPECT_EQ(route.size(), 2u);  // gpu -> switch -> host
  EXPECT_EQ(topo.link(route.back()).dst, topo.host_node());
}

TEST(TopologyTest, PeerRouteUnderOneSwitchAvoidsHost) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  EXPECT_TRUE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(3)));
}

TEST(TopologyTest, PeerRouteAcrossSwitchesCrossesHost) {
  ServerConfig config = FourGpuServer();
  config.gpus_per_switch = 2;  // gpus {0,1} on sw0, {2,3} on sw1
  const Topology topo = MakeCommodityServerTopology(config);
  EXPECT_TRUE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(1)));
  EXPECT_FALSE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(2)));
}

TEST(TopologyTest, RoutesAreSymmetricInLength) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        continue;
      }
      EXPECT_EQ(topo.Route(topo.gpu_node(a), topo.gpu_node(b)).size(),
                topo.Route(topo.gpu_node(b), topo.gpu_node(a)).size());
    }
  }
}

TEST(TopologyTest, DescribeRoutesMentionsEveryGpu) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  const std::string desc = topo.DescribeRoutes();
  for (int g = 0; g < 4; ++g) {
    EXPECT_NE(desc.find("gpu" + std::to_string(g)), std::string::npos);
  }
}

TEST(TopologyTest, FinalizeRejectsZeroBandwidthLink) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, LinkSpec{"broken", 0.0, 1e-6});
  EXPECT_DEATH(topo.Finalize(), "must have positive bandwidth");
}

TEST(TopologyTest, FinalizeRejectsNegativeLatencyLink) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, LinkSpec{"broken", GBps(10.0), -1e-6});
  EXPECT_DEATH(topo.Finalize(), "must have non-negative latency");
}

TEST(TopologyTest, MachineCarriesGpuSpecs) {
  const Machine machine = MakeCommodityServer(FourGpuServer());
  EXPECT_EQ(machine.num_gpus(), 4);
  EXPECT_EQ(machine.gpus[0].memory_bytes, 11 * kGiB);
  EXPECT_GT(machine.gpus[0].effective_flops(), 0.0);
}

// ---- TransferManager ------------------------------------------------------------------------

class TransferTest : public ::testing::Test {
 protected:
  TransferTest() : topo_(MakeCommodityServerTopology(FourGpuServer())), tm_(&sim_, &topo_) {}

  Simulator sim_;
  Topology topo_;
  TransferManager tm_;
  TransferProbe probe_{&sim_, &tm_};
};

TEST_F(TransferTest, SingleFlowGetsFullBandwidth) {
  // 12.8 GB over a 12.8 GB/s path: ~1 s (+ negligible latency).
  const TransferOutcome* done =
      probe_.Start(topo_.gpu_node(0), topo_.host_node(),
                   static_cast<Bytes>(GBps(12.8)), TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired);
  EXPECT_NEAR(done->time, 1.0, 1e-3);
}

TEST_F(TransferTest, TwoFlowsShareTheUplink) {
  // Two GPUs swapping to host share the single switch->host link: each takes ~2x as long.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  const TransferOutcome* a =
      probe_.Start(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  const TransferOutcome* b =
      probe_.Start(topo_.gpu_node(1), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  EXPECT_NEAR(a->time, 2.0, 1e-2);
  EXPECT_NEAR(b->time, 2.0, 1e-2);
}

TEST_F(TransferTest, PeerToPeerAvoidsUplinkContention) {
  // gpu0->gpu1 p2p and gpu2->host swap share no link: both finish in ~1 s.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  const TransferOutcome* p2p =
      probe_.Start(topo_.gpu_node(0), topo_.gpu_node(1), bytes, TransferKind::kPeerToPeer);
  const TransferOutcome* swap =
      probe_.Start(topo_.gpu_node(2), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  EXPECT_NEAR(p2p->time, 1.0, 1e-2);
  EXPECT_NEAR(swap->time, 1.0, 1e-2);
}

TEST_F(TransferTest, StaggeredFlowSpeedsUpAfterFirstFinishes) {
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  probe_.Start(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  const TransferOutcome* late = nullptr;
  sim_.ScheduleAt(0.5, [&] {
    late = probe_.Start(topo_.gpu_node(1), topo_.host_node(), bytes, TransferKind::kSwapOut);
  });
  sim_.RunUntilIdle();
  // At t=0.5 flow A has 6.4 GB left; both share the uplink at 6.4 GB/s, so A lands at
  // t=1.5 having let B move 6.4 GB; B's remaining 6.4 GB then runs alone: done at t=2.0.
  ASSERT_NE(late, nullptr);
  EXPECT_NEAR(late->time, 2.0, 0.05);
}

TEST_F(TransferTest, ZeroByteTransferCompletesAfterLatency) {
  const TransferOutcome* done =
      probe_.Start(topo_.gpu_node(0), topo_.host_node(), 0, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired);
  EXPECT_NEAR(done->time, 1e-5, 1e-6);  // 2 hops x 5 us
}

TEST_F(TransferTest, SameNodeTransferIsImmediate) {
  const TransferOutcome* done =
      probe_.Start(topo_.gpu_node(0), topo_.gpu_node(0), 1000, TransferKind::kOther);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired);
  EXPECT_DOUBLE_EQ(done->time, 0.0);
}

TEST_F(TransferTest, AccountsBytesByKind) {
  probe_.Start(topo_.gpu_node(0), topo_.host_node(), 100, TransferKind::kSwapOut);
  probe_.Start(topo_.host_node(), topo_.gpu_node(0), 250, TransferKind::kSwapIn);
  probe_.Start(topo_.gpu_node(0), topo_.gpu_node(1), 70, TransferKind::kPeerToPeer);
  sim_.RunUntilIdle();
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kSwapOut), 100);
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kSwapIn), 250);
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kPeerToPeer), 70);
  EXPECT_EQ(tm_.total_bytes(), 420);
  EXPECT_EQ(tm_.flows_completed(), 3);
}

TEST_F(TransferTest, LinkStatsAccumulateCarriedBytes) {
  const Bytes bytes = 1000;
  probe_.Start(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  Bytes carried = 0;
  double busy = 0.0;
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    carried += tm_.link_stats(l).bytes_carried;
    busy += tm_.link_stats(l).busy_time;
  }
  EXPECT_EQ(carried, 2 * bytes);  // two hops
  EXPECT_GT(busy, 0.0);
}

TEST_F(TransferTest, TransferKindNamesAreStable) {
  EXPECT_STREQ(TransferKindName(TransferKind::kSwapIn), "swap-in");
  EXPECT_STREQ(TransferKindName(TransferKind::kSwapOut), "swap-out");
  EXPECT_STREQ(TransferKindName(TransferKind::kPeerToPeer), "p2p");
  EXPECT_STREQ(TransferKindName(TransferKind::kCollective), "collective");
}

// Bandwidth conservation: N concurrent equal flows through the shared uplink take ~N times
// as long as one flow, i.e. aggregate throughput is capped by the bottleneck link.
class UplinkContentionTest : public ::testing::TestWithParam<int> {};

TEST_P(UplinkContentionTest, AggregateThroughputCappedByUplink) {
  const int n = GetParam();
  ServerConfig config;
  config.num_gpus = 8;
  config.gpus_per_switch = 8;
  Topology topo = MakeCommodityServerTopology(config);
  Simulator sim;
  TransferManager tm(&sim, &topo);
  TransferProbe probe(&sim, &tm);
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));  // 1 s alone
  std::vector<const TransferOutcome*> done;
  for (int g = 0; g < n; ++g) {
    done.push_back(
        probe.Start(topo.gpu_node(g), topo.host_node(), bytes, TransferKind::kSwapOut));
  }
  sim.RunUntilIdle();
  for (const TransferOutcome* event : done) {
    EXPECT_NEAR(event->time, static_cast<double>(n), 0.05 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Contention, UplinkContentionTest, ::testing::Values(1, 2, 3, 4, 6, 8));

// Property sweep: random flow sets must respect physical limits — no link ever carries more
// than bandwidth x busy-time, and every flow finishes no sooner than its contention-free
// lower bound.
class RandomFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowTest, ConservationAndLowerBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  ServerConfig config;
  config.num_gpus = 4;
  config.gpus_per_switch = 4;
  Topology topo = MakeCommodityServerTopology(config);
  Simulator sim;
  TransferManager tm(&sim, &topo);
  TransferProbe probe(&sim, &tm);

  struct Expected {
    const TransferOutcome* done;
    double start;
    double min_duration;
  };
  std::vector<Expected> flows;
  const int n = 3 + static_cast<int>(rng.NextBounded(10));
  for (int f = 0; f < n; ++f) {
    const double start = rng.NextDouble() * 0.5;
    const int src_gpu = static_cast<int>(rng.NextBounded(4));
    const bool to_host = rng.NextBounded(2) == 0;
    int dst_gpu = static_cast<int>(rng.NextBounded(4));
    if (dst_gpu == src_gpu) {
      dst_gpu = (dst_gpu + 1) % 4;
    }
    const Bytes bytes = static_cast<Bytes>((1 + rng.NextBounded(64)) * 16 * kMiB);
    const NodeId src = topo.gpu_node(src_gpu);
    const NodeId dst = to_host ? topo.host_node() : topo.gpu_node(dst_gpu);
    // Contention-free bound: bytes / min link bandwidth on the route.
    double min_bw = 1e30;
    for (LinkId lid : topo.Route(src, dst)) {
      min_bw = std::min(min_bw, topo.link(lid).spec.bandwidth_bytes_per_sec);
    }
    Expected expected{nullptr, start, static_cast<double>(bytes) / min_bw};
    flows.push_back(expected);
    const std::size_t slot = flows.size() - 1;
    sim.ScheduleAt(start, [&probe, &flows, slot, src, dst, bytes] {
      flows[slot].done = probe.Start(src, dst, bytes, TransferKind::kOther);
    });
  }
  sim.RunUntilIdle();

  for (const Expected& flow : flows) {
    ASSERT_NE(flow.done, nullptr);
    ASSERT_TRUE(flow.done->fired);
    EXPECT_GE(flow.done->time - flow.start, flow.min_duration - 1e-6);
  }
  // Conservation: a link cannot carry more bytes than bandwidth x busy time.
  for (LinkId lid = 0; lid < topo.num_links(); ++lid) {
    const LinkStats& stats = tm.link_stats(lid);
    EXPECT_LE(static_cast<double>(stats.bytes_carried),
              topo.link(lid).spec.bandwidth_bytes_per_sec * stats.busy_time + 1.0)
        << "link " << lid;
  }
  EXPECT_EQ(tm.flows_completed(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowTest, ::testing::Range(0, 12));

TEST(TopologyDeathTest, FinalizeWithoutHostAborts) {
  Topology topo;
  topo.AddNode(NodeKind::kGpu, "gpu0");
  EXPECT_DEATH(topo.Finalize(), "host");
}

TEST(TopologyDeathTest, FinalizeRejectsACycle) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId sw = topo.AddNode(NodeKind::kSwitch, "sw");
  const NodeId gpu0 = topo.AddNode(NodeKind::kGpu, "gpu0");
  const NodeId gpu1 = topo.AddNode(NodeKind::kGpu, "gpu1");
  topo.AddDuplexLink(sw, host, PcieGen3x16());
  topo.AddDuplexLink(gpu0, sw, PcieGen3x16());
  topo.AddDuplexLink(gpu1, sw, PcieGen3x16());
  topo.AddDuplexLink(gpu0, gpu1, PcieGen3x16());  // closes gpu0 - sw - gpu1 - gpu0
  EXPECT_DEATH(topo.Finalize(), "not a tree");
}

TEST(TopologyDeathTest, FinalizeRejectsAParallelLink) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, PcieGen3x16());
  topo.AddDuplexLink(gpu, host, PcieGen3x16());
  EXPECT_DEATH(topo.Finalize(), "not a tree");
}

TEST(TopologyDeathTest, FinalizeRejectsADisconnectedTopology) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu0 = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddNode(NodeKind::kGpu, "gpu1");
  topo.AddDuplexLink(host, gpu0, PcieGen3x16());
  EXPECT_DEATH(topo.Finalize(), "disconnected: no path 0 -> 2");
}

// ---- Tree routes against the all-pairs BFS table they replaced ----------------------------

std::size_t PairIndex(const Topology& topo, NodeId src, NodeId dst) {
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(topo.num_nodes()) +
         static_cast<std::size_t>(dst);
}

// The route table Topology::Finalize used to build: one BFS per source over each node's
// out-links in link-id order (fewest hops; ties to the smaller next-hop link id).
std::vector<std::vector<LinkId>> ReferenceRoutes(const Topology& topo) {
  const int n = topo.num_nodes();
  std::vector<std::vector<LinkId>> out_links(static_cast<std::size_t>(n));
  for (LinkId lid = 0; lid < topo.num_links(); ++lid) {
    out_links[static_cast<std::size_t>(topo.link(lid).src)].push_back(lid);
  }
  std::vector<std::vector<LinkId>> routes(PairIndex(topo, n, 0));
  for (NodeId src = 0; src < n; ++src) {
    std::vector<LinkId> in_link(static_cast<std::size_t>(n), -1);
    std::vector<bool> visited(static_cast<std::size_t>(n), false);
    std::deque<NodeId> frontier{src};
    visited[static_cast<std::size_t>(src)] = true;
    while (!frontier.empty()) {
      const NodeId at = frontier.front();
      frontier.pop_front();
      for (LinkId lid : out_links[static_cast<std::size_t>(at)]) {
        const NodeId next = topo.link(lid).dst;
        if (!visited[static_cast<std::size_t>(next)]) {
          visited[static_cast<std::size_t>(next)] = true;
          in_link[static_cast<std::size_t>(next)] = lid;
          frontier.push_back(next);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      std::vector<LinkId>& path = routes[PairIndex(topo, src, dst)];
      for (NodeId at = dst; at != src; at = topo.link(path.back()).src) {
        path.push_back(in_link[static_cast<std::size_t>(at)]);
      }
      std::reverse(path.begin(), path.end());
    }
  }
  return routes;
}

// The old DescribeRoutes over a reference route table.
std::string ReferenceDescribe(const Topology& topo,
                              const std::vector<std::vector<LinkId>>& routes) {
  std::ostringstream os;
  auto describe = [&](NodeId src, NodeId dst) {
    os << topo.node(src).name << " -> " << topo.node(dst).name << ": ";
    const std::vector<LinkId>& route = routes[PairIndex(topo, src, dst)];
    for (std::size_t i = 0; i < route.size(); ++i) {
      const TopologyLink& l = topo.link(route[i]);
      if (i == 0) {
        os << topo.node(l.src).name;
      }
      os << " --[" << l.spec.name << "]--> " << topo.node(l.dst).name;
    }
    os << "\n";
  };
  for (int g = 0; g < topo.num_gpus(); ++g) {
    describe(topo.gpu_node(g), topo.host_node());
  }
  for (int a = 0; a < topo.num_gpus(); ++a) {
    for (int b = 0; b < topo.num_gpus(); ++b) {
      if (a != b) {
        describe(topo.gpu_node(a), topo.gpu_node(b));
      }
    }
  }
  return os.str();
}

// Every route, the nearest-host assignment and the route description must match the
// reference table exactly.
void ExpectMatchesReference(const Topology& topo, const std::string& shape) {
  SCOPED_TRACE(shape);
  const std::vector<std::vector<LinkId>> routes = ReferenceRoutes(topo);
  const int n = topo.num_nodes();
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const RouteLinks route = topo.Route(src, dst);
      const std::vector<LinkId> got(route.begin(), route.end());
      ASSERT_EQ(got, routes[PairIndex(topo, src, dst)])
          << topo.node(src).name << " -> " << topo.node(dst).name;
    }
  }
  // Nearest host by reference hop count; ties to the lowest host id.
  std::vector<NodeId> hosts;
  for (NodeId id = 0; id < n; ++id) {
    if (topo.node(id).kind == NodeKind::kHost) {
      hosts.push_back(id);
    }
  }
  ASSERT_EQ(static_cast<int>(hosts.size()), topo.num_servers());
  for (int g = 0; g < topo.num_gpus(); ++g) {
    const NodeId gpu = topo.gpu_node(g);
    int best = 0;
    for (int h = 1; h < static_cast<int>(hosts.size()); ++h) {
      if (routes[PairIndex(topo, gpu, hosts[static_cast<std::size_t>(h)])].size() <
          routes[PairIndex(topo, gpu, hosts[static_cast<std::size_t>(best)])].size()) {
        best = h;
      }
    }
    EXPECT_EQ(topo.ServerOfGpu(g), best) << "gpu " << g;
    EXPECT_EQ(topo.HostNodeForGpu(g), hosts[static_cast<std::size_t>(best)]) << "gpu " << g;
  }
  EXPECT_EQ(topo.DescribeRoutes(), ReferenceDescribe(topo, routes));
}

TEST(TreeRouteTest, CommodityServersMatchTheAllPairsTable) {
  for (int gpus = 1; gpus <= 8; ++gpus) {
    for (int per_switch : {1, 2, 4}) {
      ServerConfig config;
      config.num_gpus = gpus;
      config.gpus_per_switch = per_switch;
      ExpectMatchesReference(MakeCommodityServerTopology(config),
                             "server gpus=" + std::to_string(gpus) +
                                 " gpus_per_switch=" + std::to_string(per_switch));
    }
  }
}

TEST(TreeRouteTest, ClustersMatchTheAllPairsTable) {
  for (int servers = 1; servers <= 8; ++servers) {
    for (int per_rack : {0, 1, 2, 3}) {
      for (int gpus_per_switch : {1, 4}) {
        ClusterConfig config;
        config.num_servers = servers;
        config.nodes_per_rack = per_rack;
        config.server.num_gpus = 4;
        config.server.gpus_per_switch = gpus_per_switch;
        ExpectMatchesReference(MakeClusterTopology(config),
                               "cluster servers=" + std::to_string(servers) +
                                   " nodes_per_rack=" + std::to_string(per_rack) +
                                   " gpus_per_switch=" + std::to_string(gpus_per_switch));
      }
    }
  }
}

// The 4096-GPU fleet (32 racks of 32 nodes) finalizes without an all-pairs table, which
// at this size held 52 M routes, and its longest route is the full gpu -> spine -> gpu
// climb.
TEST(TreeRouteTest, FourThousandGpuFleetFinalizes) {
  ClusterConfig config;
  config.num_servers = 1024;
  config.nodes_per_rack = 32;
  const Topology topo = MakeClusterTopology(config);
  ASSERT_EQ(topo.num_nodes(), 32 + 1 + 1024 * 7);  // ToRs, spine, 7 nodes per server
  ASSERT_EQ(topo.num_gpus(), 4096);
  const NodeId first = topo.gpu_node(0);
  const NodeId last = topo.gpu_node(topo.num_gpus() - 1);
  const RouteLinks route = topo.Route(first, last);
  ASSERT_EQ(static_cast<int>(route.size()), kMaxRouteHops);
  EXPECT_EQ(topo.link(route[0]).src, first);
  EXPECT_EQ(topo.link(route.back()).dst, last);
  EXPECT_EQ(topo.node(topo.link(route[4]).dst).name, "spine");
  EXPECT_EQ(topo.link(route[4]).tier, LinkTier::kRack);
  EXPECT_EQ(topo.link(route[5]).tier, LinkTier::kRack);
  EXPECT_EQ(topo.ServerOfGpu(topo.num_gpus() - 1), 1023);
}

}  // namespace
}  // namespace harmony
