// Event-driven packet forwarding: latency accrual, TTL, drop reasons.
#include "net/delivery.h"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <vector>

#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::net {
namespace {

/// Line topology with a converged link-state IGP, so FIBs are populated.
struct Fixture {
  explicit Fixture(std::uint32_t routers, sim::Duration latency)
      : network(make_topo(routers, latency)),
        igp(simulator, network, DomainId{0}),
        engine(simulator, network) {
    igp.start();
    simulator.run();
  }

  static Topology make_topo(std::uint32_t routers, sim::Duration latency) {
    Topology topo;
    const auto d = topo.add_domain("line", /*stub=*/true);
    std::vector<NodeId> nodes;
    for (std::uint32_t i = 0; i < routers; ++i) nodes.push_back(topo.add_router(d));
    for (std::uint32_t i = 0; i + 1 < routers; ++i) {
      topo.add_link(nodes[i], nodes[i + 1], 1, latency);
    }
    return topo;
  }

  Packet packet_to(NodeId dst, std::uint8_t ttl = 64) {
    Packet p;
    Ipv4Header h;
    h.src = network.topology().router(NodeId{0}).loopback;
    h.dst = network.topology().router(dst).loopback;
    h.ttl = ttl;
    p.push(HeaderLayer::ipv4(h));
    return p;
  }

  sim::Simulator simulator;
  Network network;
  igp::LinkStateIgp igp;
  DeliveryEngine engine;
};

TEST(DeliveryEngine, DeliversWithAccruedLatency) {
  Fixture f(5, sim::Duration::millis(3));
  bool delivered = false;
  f.engine.inject(NodeId{0}, f.packet_to(NodeId{4}),
                  [&](NodeId at, const Packet&, sim::Duration elapsed) {
                    delivered = true;
                    EXPECT_EQ(at, NodeId{4});
                    EXPECT_EQ(elapsed, sim::Duration::millis(12));  // 4 hops x 3ms
                  });
  f.simulator.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.engine.packets_delivered(), 1u);
  EXPECT_EQ(f.engine.packets_forwarded(), 4u);
}

TEST(DeliveryEngine, LocalDeliveryIsImmediate) {
  Fixture f(3, sim::Duration::millis(1));
  bool delivered = false;
  f.engine.inject(NodeId{1}, f.packet_to(NodeId{1}),
                  [&](NodeId at, const Packet&, sim::Duration elapsed) {
                    delivered = true;
                    EXPECT_EQ(at, NodeId{1});
                    EXPECT_EQ(elapsed, sim::Duration::zero());
                  });
  EXPECT_TRUE(delivered);  // synchronous: no events needed
}

TEST(DeliveryEngine, TtlExpiryDrops) {
  Fixture f(6, sim::Duration::millis(1));
  bool dropped = false;
  f.engine.inject(
      NodeId{0}, f.packet_to(NodeId{5}, /*ttl=*/2),
      [&](NodeId, const Packet&, sim::Duration) { FAIL() << "delivered"; },
      [&](Network::TraceResult::Outcome reason, NodeId at, const Packet&) {
        dropped = true;
        EXPECT_EQ(reason, Network::TraceResult::Outcome::kTtlExpired);
        EXPECT_EQ(at, NodeId{2});  // two hops in
      });
  f.simulator.run();
  EXPECT_TRUE(dropped);
  EXPECT_EQ(f.engine.packets_dropped(), 1u);
}

TEST(DeliveryEngine, NoRouteDrops) {
  Fixture f(3, sim::Duration::millis(1));
  bool dropped = false;
  Packet p;
  Ipv4Header h;
  h.dst = Ipv4Addr{0, 99, 0, 1};  // unknown destination
  p.push(HeaderLayer::ipv4(h));
  f.engine.inject(
      NodeId{0}, std::move(p),
      [&](NodeId, const Packet&, sim::Duration) { FAIL(); },
      [&](Network::TraceResult::Outcome reason, NodeId, const Packet&) {
        dropped = true;
        EXPECT_EQ(reason, Network::TraceResult::Outcome::kNoRoute);
      });
  f.simulator.run();
  EXPECT_TRUE(dropped);
}

TEST(DeliveryEngine, LinkFailureMidFlightDrops) {
  Fixture f(4, sim::Duration::millis(5));
  bool dropped = false;
  bool delivered = false;
  f.engine.inject(
      NodeId{0}, f.packet_to(NodeId{3}),
      [&](NodeId, const Packet&, sim::Duration) { delivered = true; },
      [&](Network::TraceResult::Outcome reason, NodeId, const Packet&) {
        dropped = true;
        EXPECT_EQ(reason, Network::TraceResult::Outcome::kLinkDown);
      });
  // Fail the last link while the packet is in flight (before it arrives).
  f.simulator.schedule_after(sim::Duration::millis(7), [&] {
    f.network.topology().set_link_up(LinkId{2}, false);
  });
  f.simulator.run();
  EXPECT_TRUE(dropped);
  EXPECT_FALSE(delivered);
}

TEST(DeliveryEngine, ManyConcurrentPackets) {
  Fixture f(8, sim::Duration::millis(1));
  int received = 0;
  for (int i = 0; i < 100; ++i) {
    f.engine.inject(NodeId{0}, f.packet_to(NodeId{7}),
                    [&](NodeId, const Packet&, sim::Duration) { ++received; });
  }
  f.simulator.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(f.engine.packets_delivered(), 100u);
}

TEST(DeliveryEngine, PayloadIdSurvives) {
  Fixture f(3, sim::Duration::millis(1));
  auto p = f.packet_to(NodeId{2});
  p.payload_id = 424242;
  bool checked = false;
  f.engine.inject(NodeId{0}, std::move(p),
                  [&](NodeId, const Packet& arrived, sim::Duration) {
                    checked = true;
                    EXPECT_EQ(arrived.payload_id, 424242u);
                  });
  f.simulator.run();
  EXPECT_TRUE(checked);
}

TEST(DeliveryEngine, HopsMatchSynchronousTrace) {
  // Trace and engine both run Network::forward_step: the engine's net.pkt.hop
  // records must retrace Network::trace hop for hop and end the same way.
  // A loop is caught by visit marks in the trace and by TTL in the engine.
  using Outcome = Network::TraceResult::Outcome;
  Fixture f(5, sim::Duration::millis(2));
  const Prefix looped{Ipv4Addr{0, 98, 0, 0}, 16};
  f.network.fib(NodeId{0}).insert(
      FibEntry{looped, NodeId{1}, LinkId{0}, RouteOrigin::kStatic, 1});
  f.network.fib(NodeId{1}).insert(
      FibEntry{looped, NodeId{0}, LinkId{0}, RouteOrigin::kStatic, 1});
  obs::Recorder recorder;
  recorder.set_capture_all(true);
  f.engine.set_recorder(&recorder);

  struct Case {
    const char* name;
    Ipv4Addr dst;
    Outcome trace_outcome;
    Outcome engine_outcome;
  };
  const Ipv4Addr far_end = f.network.topology().router(NodeId{4}).loopback;
  const Case cases[] = {
      {"delivered", far_end, Outcome::kDelivered, Outcome::kDelivered},
      {"no-route", Ipv4Addr{0, 99, 0, 1}, Outcome::kNoRoute, Outcome::kNoRoute},
      {"loop", Ipv4Addr{0, 98, 0, 1}, Outcome::kForwardingLoop, Outcome::kTtlExpired},
      // Silently failed: the FIBs still point into the dead last link.
      {"link-down", far_end, Outcome::kLinkDown, Outcome::kLinkDown},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    if (c.trace_outcome == Outcome::kLinkDown) {
      f.network.topology().set_link_up(LinkId{3}, false);
    }
    const auto trace = f.network.trace(NodeId{0}, c.dst);
    EXPECT_EQ(trace.outcome, c.trace_outcome);

    recorder.clear();
    Packet p;
    Ipv4Header h;
    h.dst = c.dst;
    h.ttl = 8;
    p.push(HeaderLayer::ipv4(h));
    std::optional<Outcome> engine_outcome;
    f.engine.inject(
        NodeId{0}, std::move(p),
        [&](NodeId, const Packet&, sim::Duration) {
          engine_outcome = Outcome::kDelivered;
        },
        [&](Outcome reason, NodeId, const Packet&) { engine_outcome = reason; });
    f.simulator.run();
    EXPECT_EQ(engine_outcome, c.engine_outcome);

    std::vector<NodeId> engine_hops = {NodeId{0}};
    for (const obs::Event& e : recorder.log()) {
      if (std::string_view(e.name) != "net.pkt.hop") continue;
      EXPECT_EQ(NodeId{static_cast<std::uint32_t>(e.a)}, engine_hops.back());
      engine_hops.push_back(NodeId{static_cast<std::uint32_t>(e.b)});
    }
    if (c.trace_outcome == Outcome::kForwardingLoop) {
      // The engine keeps circling until TTL runs out; the trace stops at
      // the first revisit.
      ASSERT_GE(engine_hops.size(), trace.hops.size());
      engine_hops.resize(trace.hops.size());
    }
    EXPECT_EQ(engine_hops, trace.hops);
  }
}

}  // namespace
}  // namespace evo::net
