// IpvnWalk driven by hand: a tunnel or tail leg that lands anywhere but its
// Leg::arrive_at router ends the walk with that leg's failure class. No
// carrier can produce such a landing (a tunnel to a loopback is delivered
// only at that router, a tail only at the destination's access router), so
// only a test that reports arrivals itself reaches the check.
#include "core/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;
using net::NodeId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub(
        {.transit_domains = 2, .stubs_per_transit = 2, .seed = 55});
    sim::Rng rng{55};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo));
    internet->start();
    internet->deploy_domain(DomainId{0});
    internet->deploy_domain(DomainId{3});  // a second domain: vN-Bone tunnels
    internet->converge();
  }

  /// The first ordered host pair whose delivered trace has a segment of
  /// `kind`, with that trace.
  std::optional<std::pair<HostId, HostId>> pair_with(Segment::Kind kind) const {
    const auto& hosts = internet->topology().hosts();
    for (const auto& src : hosts) {
      for (const auto& dst : hosts) {
        if (src.id == dst.id) continue;
        const EndToEndTrace trace = send_ipvn(*internet, src.id, dst.id);
        if (!trace.delivered) continue;
        for (const Segment& segment : trace.segments) {
          if (segment.kind == kind) return std::make_pair(src.id, dst.id);
        }
      }
    }
    return std::nullopt;
  }

  /// A walk for `pair` that has arrived where it should up to its first
  /// leg of `kind`.
  std::unique_ptr<IpvnWalk> walk_to(std::pair<HostId, HostId> pair,
                                    Segment::Kind kind) const {
    auto walk = std::make_unique<IpvnWalk>(*internet, 0, pair.first, pair.second,
                                           internet->vnbone().anycast_address());
    const EndToEndTrace trace = send_ipvn(*internet, pair.first, pair.second);
    walk->arrive(trace.ingress);
    while (!walk->done() && walk->leg().kind != kind) {
      walk->arrive(walk->leg().arrive_at);
    }
    return walk;
  }

  /// A router other than `router`.
  NodeId other_than(NodeId router) const {
    return NodeId{router.value() == 0 ? 1u : 0u};
  }

  std::unique_ptr<EvolvableInternet> internet;
};

TEST(IpvnWalk, TunnelLandingElsewhereFailsTheTunnel) {
  Fixture f;
  const auto pair = f.pair_with(Segment::Kind::kTunnel);
  ASSERT_TRUE(pair.has_value()) << "no host pair crosses a vN-Bone tunnel";

  // Landing every leg where it should delivers the datagram.
  auto good = f.walk_to(*pair, Segment::Kind::kTunnel);
  ASSERT_FALSE(good->done());
  while (!good->done()) good->arrive(good->leg().arrive_at);
  EXPECT_TRUE(good->result().delivered);

  auto walk = f.walk_to(*pair, Segment::Kind::kTunnel);
  ASSERT_FALSE(walk->done());
  ASSERT_EQ(walk->leg().kind, Segment::Kind::kTunnel);
  walk->arrive(f.other_than(walk->leg().arrive_at));
  EXPECT_TRUE(walk->done());
  EXPECT_FALSE(walk->result().delivered);
  EXPECT_EQ(walk->result().failure, EndToEndTrace::Failure::kTunnelFailed);
}

TEST(IpvnWalk, TailLandingElsewhereFailsTheEgress) {
  Fixture f;
  const auto pair = f.pair_with(Segment::Kind::kLegacyEgress);
  ASSERT_TRUE(pair.has_value()) << "no host pair leaves the vN-Bone for a legacy tail";

  auto walk = f.walk_to(*pair, Segment::Kind::kLegacyEgress);
  ASSERT_FALSE(walk->done());
  ASSERT_EQ(walk->leg().kind, Segment::Kind::kLegacyEgress);
  walk->arrive(f.other_than(walk->leg().arrive_at));
  EXPECT_TRUE(walk->done());
  EXPECT_FALSE(walk->result().delivered);
  EXPECT_EQ(walk->result().failure, EndToEndTrace::Failure::kEgressFailed);
}

}  // namespace
}  // namespace evo::core
