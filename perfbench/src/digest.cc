#include "digest.h"

namespace perfbench {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace

std::uint64_t state_digest(const evo::core::EvolvableInternet& internet) {
  Fnv1a h;
  const auto& network = internet.network();
  for (const auto& router : network.topology().routers()) {
    h.add(router.id.value());
    network.fib(router.id).for_each([&](const evo::net::FibEntry& e) {
      h.add(e.prefix.address().bits());
      h.add(e.prefix.length());
      h.add(e.next_hop.value());
      h.add(e.out_link.value());
      h.add(static_cast<std::uint64_t>(e.origin));
      h.add(static_cast<std::uint64_t>(e.metric));
    });
    internet.bgp().for_each_best_route(router.id, [&](const evo::bgp::Route& r) {
      h.add(r.prefix.address().bits());
      h.add(r.prefix.length());
      h.add(r.as_path.size());
      for (const auto domain : r.as_path) h.add(domain.value());
      h.add(r.egress_router.value());
      h.add(r.ebgp_next_hop.value());
      h.add(r.via_link.value());
      h.add(static_cast<std::uint64_t>(r.local_pref));
      h.add(static_cast<std::uint64_t>(r.learned));
      h.add((r.via_ibgp ? 1u : 0u) | (r.no_export ? 2u : 0u) | (r.anycast ? 4u : 0u));
      h.add(r.propagation_ttl);
    });
  }
  for (const auto& link : internet.vnbone().virtual_links()) {
    h.add(link.a.value());
    h.add(link.b.value());
    h.add(static_cast<std::uint64_t>(link.underlay_cost));
    h.add(link.interdomain ? 1 : 0);
    h.add(static_cast<std::uint64_t>(link.source));
  }
  return h.value();
}

}  // namespace perfbench
