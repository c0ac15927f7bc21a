#include "host/endhost.h"

#include <cassert>

namespace evo::host {

using net::HostId;
using net::Ipv4Addr;
using net::IpvNAddr;
using net::NodeId;
using net::Packet;

HostStack::HostStack(const net::Network& network, const vnbone::VnBone& vnbone)
    : network_(network), vnbone_(vnbone) {}

net::IpvNAddr HostStack::ipvn_address(HostId host) const {
  const auto& topo = network_.topology();
  const auto& h = topo.host(host);
  const auto& access = topo.router(h.access_router);
  if (vnbone_.domain_deployed(access.domain)) {
    // Provider-allocated native address. The host index within the access
    // router's subnet is recoverable from the low byte of its v4 address.
    const std::uint32_t host_index = (h.address.bits() & 0xFF) - 2;
    return IpvNAddr::native(vnbone_.config().version, access.domain.value(),
                            h.access_router.value(), host_index);
  }
  return IpvNAddr::self(vnbone_.config().version, h.address);
}

bool HostStack::has_native_address(HostId host) const {
  return !ipvn_address(host).is_self_address();
}

std::optional<HostId> HostStack::host_by_ipvn(IpvNAddr addr) const {
  const auto& topo = network_.topology();
  if (addr.is_self_address()) {
    return topo.host_by_address(addr.embedded_v4());
  }
  const NodeId access{addr.native_node()};
  if (access.value() >= topo.router_count()) return std::nullopt;
  const auto& router = topo.router(access);
  const Ipv4Addr v4{
      net::Topology::router_subnet(router.domain, router.index_in_domain)
          .address()
          .bits() |
      (addr.native_host() + 2)};
  return topo.host_by_address(v4);
}

Packet HostStack::make_datagram(HostId src, HostId dst,
                                std::uint64_t payload_id) const {
  Packet packet = net::make_encapsulated(make_header(src, dst),
                                         network_.topology().host(src).address,
                                         vnbone_.anycast_address());
  packet.payload_id = payload_id;
  return packet;
}

net::IpvNHeader HostStack::make_header(HostId src, HostId dst) const {
  net::IpvNHeader inner;
  inner.src = ipvn_address(src);
  inner.dst = ipvn_address(dst);
  // "The destination's IPv(N-1) address could ... be carried in a separate
  // option field in the IPvN header" — always set it so egress routing
  // works for native destinations behind non-IPvN access routers too.
  inner.legacy_dst = network_.topology().host(dst).address;
  inner.has_legacy_dst = true;
  return inner;
}

}  // namespace evo::host
