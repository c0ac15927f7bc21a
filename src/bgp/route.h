// BGP route representation and policy attributes.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "net/address.h"
#include "net/ids.h"
#include "net/topology.h"

namespace evo::bgp {

/// How a route entered the local *domain* (drives Gao-Rexford export and
/// local preference). A route received over iBGP keeps the class it had at
/// the border that learned it — see Route::via_ibgp.
enum class LearnedFrom : std::uint8_t {
  kSelf,      // originated by this domain
  kCustomer,  // learned over a customer session
  kPeer,      // learned over a peer session
  kProvider,  // learned over a provider session
};

const char* to_string(LearnedFrom learned);

/// Standard Gao-Rexford local preference: prefer customer > peer > provider.
constexpr int local_pref_for(LearnedFrom learned) {
  switch (learned) {
    case LearnedFrom::kSelf: return 400;
    case LearnedFrom::kCustomer: return 300;
    case LearnedFrom::kPeer: return 200;
    case LearnedFrom::kProvider: return 100;
  }
  return 0;
}

/// An AS path, nearest first: an 8-byte handle to an immutable
/// {length, asns} record interned by the BgpSystem that built it, which
/// owns the record. A handle is valid while that system lives. Within one
/// system equal paths share one record, so == compares handles; paths of
/// two different systems must be compared element by element. A
/// default-constructed path is empty.
class AsPath {
 public:
  struct Record {
    std::uint32_t id;  // dense per system; the empty path is 0
    std::uint32_t length;
    const net::DomainId* asns;
  };

  AsPath() = default;
  explicit AsPath(const Record* record) : record_(record) {}

  std::size_t size() const { return record_->length; }
  bool empty() const { return record_->length == 0; }
  net::DomainId front() const { return record_->asns[0]; }
  net::DomainId back() const { return record_->asns[record_->length - 1]; }
  net::DomainId operator[](std::size_t i) const { return record_->asns[i]; }
  const net::DomainId* begin() const { return record_->asns; }
  const net::DomainId* end() const { return record_->asns + record_->length; }
  std::reverse_iterator<const net::DomainId*> rbegin() const {
    return std::reverse_iterator(end());
  }
  std::reverse_iterator<const net::DomainId*> rend() const {
    return std::reverse_iterator(begin());
  }
  /// The record's id in its system's intern table.
  std::uint32_t id() const { return record_->id; }

  friend bool operator==(AsPath a, AsPath b) { return a.record_ == b.record_; }

 private:
  static constexpr Record kEmpty{0, 0, nullptr};
  const Record* record_ = &kEmpty;
};

struct Route {
  net::Prefix prefix;
  /// AS path, nearest first; back() is the origin domain.
  AsPath as_path;
  /// The local border router holding the eBGP session this route entered
  /// through (== the egress for hot-potato forwarding).
  net::NodeId egress_router;
  /// The remote border router to forward to at the egress.
  net::NodeId ebgp_next_hop;
  /// The inter-domain link at the egress.
  net::LinkId via_link;
  int local_pref = 0;
  LearnedFrom learned = LearnedFrom::kSelf;
  /// True when this copy arrived over iBGP (the egress is a *different*
  /// border router of this domain). `learned` still records how the route
  /// entered the domain, so export policy survives iBGP distribution.
  bool via_ibgp = false;
  /// Community "no-export": receivers keep the route but never propagate
  /// it. Used for the paper's bilateral anycast peering arrangements.
  bool no_export = false;
  /// GIA-style propagation radius carried with the route (see
  /// OriginationPolicy::propagation_ttl); 0 = unlimited.
  std::uint8_t propagation_ttl = 0;
  /// Marks anycast group routes (for state-counting experiments).
  bool anycast = false;

  net::DomainId origin_domain() const {
    return as_path.empty() ? net::DomainId::invalid() : as_path.back();
  }
  bool contains_domain(net::DomainId d) const {
    for (const auto dom : as_path) {
      if (dom == d) return true;
    }
    return false;
  }

  /// Every field counts: the decision process treats any difference
  /// (including the propagation radius) as a new route to advertise.
  friend bool operator==(const Route&, const Route&) = default;

  std::string describe() const;
};

// UPDATEs, decisions and Loc-RIB writes copy routes without allocating.
static_assert(std::is_trivially_copyable_v<Route>);

/// How a locally originated prefix is exported.
struct OriginationPolicy {
  /// When set, export only to these neighbor domains (the paper's "peer
  /// with neighboring domains to advertise their anycast route").
  std::optional<std::set<net::DomainId>> export_scope;
  /// Receivers must not propagate further (bilateral arrangement).
  bool no_export = false;
  /// Stop propagating once the AS path reaches this length (GIA-style
  /// scoped search dissemination: members are visible within a radius,
  /// default routes to the home domain cover the rest). 0 = unlimited.
  std::uint8_t propagation_ttl = 0;
  bool anycast = false;
};

}  // namespace evo::bgp
