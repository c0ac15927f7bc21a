// Pins BGP's message schedule. Through start-up, an inter-domain link flap
// and a border-router crash and recovery, the number of UPDATEs, the number
// of simulator events and a digest of every Loc-RIB and FIB must stay
// exactly as recorded: a change to how the RIBs are stored may not reorder
// or add a single message.
#include "bgp/bgp.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::bgp {
namespace {

using net::DomainId;
using net::LinkId;
using net::NodeId;
using net::Relationship;
using net::Topology;

/// Simulator + network + one link-state IGP per domain + BGP, with link and
/// router failures fanned out the way the full internet does it.
struct Internet {
  explicit Internet(Topology topo) : network(std::move(topo)) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, network, domain.id));
    }
    bgp = std::make_unique<BgpSystem>(
        simulator, network,
        [this](DomainId d) -> const igp::Igp* { return igps[d.value()].get(); });
    for (auto& igp : igps) igp->start();
    bgp->start();
    converge();
  }

  void converge() {
    simulator.run();
    bgp->install_routes();
  }

  void notify(LinkId link) {
    const auto& l = network.topology().link(link);
    if (l.interdomain) {
      bgp->on_link_change(link);
    } else {
      igps[network.topology().router(l.a).domain.value()]->on_link_change(link);
    }
  }

  void set_link_up(LinkId link, bool up) {
    network.topology().set_link_up(link, up);
    notify(link);
    converge();
  }

  void set_node_up(NodeId node, bool up) {
    network.topology().set_node_up(node, up);
    bgp->on_node_change(node, up);
    for (const LinkId link : network.topology().router(node).links) {
      if (network.topology().link(link).up) notify(link);
    }
    converge();
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  std::unique_ptr<BgpSystem> bgp;
};

/// FNV-1a over every router's Loc-RIB (every field of every best route)
/// and FIB.
std::uint64_t digest(const Internet& net) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&](std::uint64_t v) { h = (h ^ v) * 0x100000001B3ull; };
  for (const auto& router : net.network.topology().routers()) {
    mix(router.id.value());
    net.bgp->for_each_best_route(router.id, [&](const Route& r) {
      mix(r.prefix.address().bits());
      mix(r.prefix.length());
      mix(r.as_path.size());
      for (const DomainId d : r.as_path) mix(d.value());
      mix(r.egress_router.value());
      mix(r.ebgp_next_hop.value());
      mix(r.via_link.value());
      mix(static_cast<std::uint64_t>(r.local_pref));
      mix(static_cast<std::uint64_t>(r.learned));
      mix((r.via_ibgp ? 1u : 0u) | (r.no_export ? 2u : 0u) | (r.anycast ? 4u : 0u));
      mix(r.propagation_ttl);
    });
    for (const auto& e : net.network.fib(router.id).entries()) {
      mix(e.prefix.address().bits());
      mix(e.prefix.length());
      mix(e.next_hop.value());
      mix(e.out_link.value());
      mix(static_cast<std::uint64_t>(e.origin));
      mix(e.metric);
    }
  }
  return h;
}

struct Checkpoint {
  std::uint64_t messages;
  std::uint64_t events;
  std::uint64_t digest;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Checkpoint& c) {
    return os << "{" << c.messages << ", " << c.events << ", " << c.digest << "ull}";
  }
};

Checkpoint checkpoint(const Internet& net) {
  return {net.bgp->messages_sent(), net.simulator.events_processed(), digest(net)};
}

TEST(BgpSchedule, TransitStubStartFlapAndCrashArePinned) {
  Internet net(net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 3, .seed = 11}));
  std::vector<Checkpoint> seen{checkpoint(net)};

  LinkId interdomain = LinkId::invalid();
  for (const auto& link : net.network.topology().links()) {
    if (link.interdomain) {
      interdomain = link.id;
      break;
    }
  }
  ASSERT_TRUE(interdomain.valid());
  net.set_link_up(interdomain, false);
  seen.push_back(checkpoint(net));
  net.set_link_up(interdomain, true);
  seen.push_back(checkpoint(net));

  const NodeId border = net.network.topology().link(interdomain).b;
  net.set_node_up(border, false);
  seen.push_back(checkpoint(net));
  net.set_node_up(border, true);
  seen.push_back(checkpoint(net));

  // Recorded before the RIBs were flattened.
  const std::vector<Checkpoint> expected{
      {311, 1183, 15642294342018569352ull},
      {363, 1249, 15178021000829333677ull},
      {452, 1354, 15642294342018569352ull},
      {501, 1475, 9528873967210473210ull},
      {646, 1873, 15642294342018569352ull},
  };
  EXPECT_EQ(seen, expected);
  // A flap or a crash that heals restores every table.
  EXPECT_EQ(seen[2].digest, seen[0].digest);
  EXPECT_EQ(seen[4].digest, seen[0].digest);
}

/// A hub domain of `borders` border routers in a ring, each also linked to
/// one of two customer-domain routers (alternately); the first hub router
/// also has a provider. Every hub border has an iBGP session to each of the
/// others, so with more than 64 borders a speaker's sessions fill more than
/// one Adj-RIB-Out word.
Topology wide_hub(std::uint32_t borders) {
  Topology topo;
  const DomainId hub = topo.add_domain("hub");
  const DomainId customer = topo.add_domain("customer");
  const DomainId provider = topo.add_domain("provider");
  std::vector<NodeId> h;
  for (std::uint32_t i = 0; i < borders; ++i) h.push_back(topo.add_router(hub));
  for (std::uint32_t i = 0; i < borders; ++i) {
    topo.add_link(h[i], h[(i + 1) % borders], 1);
  }
  const NodeId c[] = {topo.add_router(customer), topo.add_router(customer)};
  topo.add_link(c[0], c[1], 1);
  const NodeId p = topo.add_router(provider);
  for (std::uint32_t i = 0; i < borders; ++i) {
    topo.add_interdomain_link(h[i], c[i % 2], Relationship::kCustomer);
  }
  topo.add_interdomain_link(h[0], p, Relationship::kProvider);
  return topo;
}

TEST(BgpSchedule, SpeakerWithMoreThan64SessionsIsPinned) {
  constexpr std::uint32_t kBorders = 66;
  Internet net(wide_hub(kBorders));
  const auto& topo = net.network.topology();
  const auto& hub = net.bgp->speakers_of(DomainId{0});
  ASSERT_EQ(hub.size(), kBorders);
  std::vector<Checkpoint> seen{checkpoint(net)};

  // Every other hub border holds its session to the last one at slot 65 or
  // 66 (after its eBGP sessions), in its second Adj-RIB-Out word. Crash
  // that border, bring it back, then flap its customer link.
  const NodeId last = hub.back();
  net.set_node_up(last, false);
  seen.push_back(checkpoint(net));
  for (const NodeId b : hub) {
    if (b == last) continue;
    for (const auto& domain : topo.domains()) {
      const Route* route = net.bgp->best_route(b, domain.prefix);
      if (route != nullptr) {
        EXPECT_NE(route->egress_router, last);
      }
    }
  }
  net.set_node_up(last, true);
  seen.push_back(checkpoint(net));

  LinkId customer_link = LinkId::invalid();
  for (const LinkId link : topo.router(last).links) {
    if (topo.link(link).interdomain) customer_link = link;
  }
  ASSERT_TRUE(customer_link.valid());
  net.set_link_up(customer_link, false);
  seen.push_back(checkpoint(net));
  net.set_link_up(customer_link, true);
  seen.push_back(checkpoint(net));

  // Recorded before the RIBs were flattened.
  const std::vector<Checkpoint> expected{
      {8920, 13817, 3391794430853051856ull},
      {8920, 14067, 434295142616924599ull},
      {17801, 23615, 3391794430853051856ull},
      {17866, 23681, 16156868203664897443ull},
      {18036, 23854, 3391794430853051856ull},
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(seen[2].digest, seen[0].digest);
  EXPECT_EQ(seen[4].digest, seen[0].digest);
  // Every hub border reaches the provider's prefix.
  for (const NodeId b : hub) {
    EXPECT_NE(net.bgp->best_route(b, topo.domain(DomainId{2}).prefix), nullptr);
  }
}

}  // namespace
}  // namespace evo::bgp
