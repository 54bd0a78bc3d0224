#include <gtest/gtest.h>

#include "flow/dinic.h"
#include "flow/network.h"
#include "max_flow_oracle.h"

namespace delta::flow {
namespace {

using oracle::EdmondsKarp;
using oracle::max_flow_edmonds_karp;

// Classic CLRS example network with known max flow 23.
FlowNetwork clrs_network(NodeIndex& s, NodeIndex& t) {
  FlowNetwork net;
  s = net.add_node();
  const NodeIndex v1 = net.add_node();
  const NodeIndex v2 = net.add_node();
  const NodeIndex v3 = net.add_node();
  const NodeIndex v4 = net.add_node();
  t = net.add_node();
  net.add_edge(s, v1, 16);
  net.add_edge(s, v2, 13);
  net.add_edge(v1, v3, 12);
  net.add_edge(v2, v1, 4);
  net.add_edge(v2, v4, 14);
  net.add_edge(v3, v2, 9);
  net.add_edge(v3, t, 20);
  net.add_edge(v4, v3, 7);
  net.add_edge(v4, t, 4);
  return net;
}

TEST(EdmondsKarpTest, ClrsExample) {
  NodeIndex s{};
  NodeIndex t{};
  FlowNetwork net = clrs_network(s, t);
  EXPECT_EQ(max_flow_edmonds_karp(net, s, t), 23);
  EXPECT_TRUE(net.flow_is_feasible(s, t));
}

TEST(DinicTest, ClrsExample) {
  NodeIndex s{};
  NodeIndex t{};
  FlowNetwork net = clrs_network(s, t);
  EXPECT_EQ(max_flow_dinic(net, s, t), 23);
  EXPECT_TRUE(net.flow_is_feasible(s, t));
}

TEST(EdmondsKarpTest, DisconnectedSinkHasZeroFlow) {
  FlowNetwork net;
  const NodeIndex s = net.add_node();
  const NodeIndex m = net.add_node();
  const NodeIndex t = net.add_node();
  net.add_edge(s, m, 5);  // no edge to t
  EXPECT_EQ(max_flow_edmonds_karp(net, s, t), 0);
}

TEST(EdmondsKarpTest, ParallelEdgesAccumulate) {
  FlowNetwork net;
  const NodeIndex s = net.add_node();
  const NodeIndex t = net.add_node();
  net.add_edge(s, t, 3);
  net.add_edge(s, t, 4);
  EXPECT_EQ(max_flow_edmonds_karp(net, s, t), 7);
}

TEST(EdmondsKarpTest, IncrementalAugmentationAfterEdgeAddition) {
  FlowNetwork net;
  const NodeIndex s = net.add_node();
  const NodeIndex m = net.add_node();
  const NodeIndex t = net.add_node();
  const EdgeId sm = net.add_edge(s, m, 10);
  net.add_edge(m, t, 4);
  EdmondsKarp ek{net, s, t};
  EXPECT_EQ(ek.run_to_max(), 4);
  EXPECT_EQ(ek.total_flow(), 4);

  // Add capacity: previous flow stays valid; only the delta is augmented.
  net.add_edge(m, t, 5);
  EXPECT_EQ(ek.run_to_max(), 5);
  EXPECT_EQ(ek.total_flow(), 9);
  EXPECT_EQ(net.edge(sm).flow, 9);
  EXPECT_TRUE(net.flow_is_feasible(s, t));
}

TEST(EdmondsKarpTest, IncrementalMatchesScratchAfterGrowth) {
  FlowNetwork net;
  const NodeIndex s = net.add_node();
  const NodeIndex t = net.add_node();
  EdmondsKarp ek{net, s, t};

  std::vector<NodeIndex> mids;
  for (int round = 0; round < 8; ++round) {
    const NodeIndex m = net.add_node();
    mids.push_back(m);
    net.add_edge(s, m, round + 1);
    net.add_edge(m, t, 2 * (round % 3) + 1);
    ek.run_to_max();
    FlowNetwork scratch = net.zero_flow_copy();
    EXPECT_EQ(ek.total_flow(), max_flow_edmonds_karp(scratch, s, t))
        << "after round " << round;
  }
}

TEST(EdmondsKarpTest, ReachabilityIdentifiesMinCut) {
  // s -> a (cap 1) -> t (cap 100): cut is {s->a}, so only s reachable.
  FlowNetwork net;
  const NodeIndex s = net.add_node();
  const NodeIndex a = net.add_node();
  const NodeIndex t = net.add_node();
  net.add_edge(s, a, 1);
  net.add_edge(a, t, 100);
  EdmondsKarp ek{net, s, t};
  ek.run_to_max();
  ek.compute_reachability();
  EXPECT_TRUE(ek.reachable(s));
  EXPECT_FALSE(ek.reachable(a));
  EXPECT_FALSE(ek.reachable(t));
}

TEST(MaxFlowCrossCheckTest, RandomNetworksAgree) {
  // Compare EK and Dinic on pseudo-random layered networks.
  std::uint64_t state = 12345;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33);
  };
  for (int trial = 0; trial < 30; ++trial) {
    FlowNetwork net;
    const NodeIndex s = net.add_node();
    const NodeIndex t = net.add_node();
    std::vector<NodeIndex> layer1;
    std::vector<NodeIndex> layer2;
    for (int i = 0; i < 5; ++i) layer1.push_back(net.add_node());
    for (int i = 0; i < 5; ++i) layer2.push_back(net.add_node());
    for (const NodeIndex v : layer1) {
      net.add_edge(s, v, static_cast<Capacity>(next() % 20 + 1));
    }
    for (const NodeIndex v : layer1) {
      for (const NodeIndex w : layer2) {
        if (next() % 3 == 0) {
          net.add_edge(v, w, static_cast<Capacity>(next() % 15 + 1));
        }
      }
    }
    for (const NodeIndex w : layer2) {
      net.add_edge(w, t, static_cast<Capacity>(next() % 20 + 1));
    }
    FlowNetwork for_ek = net.zero_flow_copy();
    FlowNetwork for_dinic = net.zero_flow_copy();
    EXPECT_EQ(max_flow_edmonds_karp(for_ek, s, t),
              max_flow_dinic(for_dinic, s, t))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace delta::flow
