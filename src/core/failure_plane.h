// Deterministic fault injection for the evolvable internet.
//
// A FailureSchedule is a declarative list of churn events — link flaps,
// router crash/recovery, anycast-member loss/rejoin — stamped with nominal
// simulated times. A FailurePlane arms the schedule against an
// EvolvableInternet: each event is applied as a simulator event, probes
// measure the data plane immediately after the hit ("during" churn) and
// again once the control plane requiesces ("after"), and the time between
// the two is the event's time-to-reconverge. Everything lands in a
// MetricRegistry under net.failure.*:
//
//   net.failure.events                 counter, total events applied
//   net.failure.events.<kind>          counter per event kind
//   net.failure.reconverge_ms          summary, per-event reconvergence time
//   net.failure.during.delivery_rate   summary, % probes delivered per event,
//                                      measured right after the hit
//   net.failure.after.delivery_rate    summary, same but post-reconvergence
//   net.failure.blackholes             counter, probe drops (no-route or
//                                      link-down) across both phases
//   net.failure.loops                  counter, probe forwarding loops /
//                                      TTL exhaustions across both phases
//
// Events are chain-armed: event i+1 is scheduled only after event i's
// reconvergence is observed, at max(nominal time, current time). This keeps
// quiescence observable between events (the whole schedule is never sitting
// in the queue at once) and makes per-event reconvergence well defined even
// when nominal times would overlap.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/evolvable_internet.h"
#include "net/ids.h"
#include "sim/metrics.h"
#include "sim/time.h"

namespace evo::core {

enum class FailureKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kNodeDown,
  kNodeUp,
  kMemberLoss,  // undeploy an IPvN router (drops out of the anycast group)
  kMemberJoin,  // (re-)deploy an IPvN router
};

const char* to_string(FailureKind kind);

/// Inverse of to_string(FailureKind); nullopt for unknown names. Used by
/// the scenario-replay parser.
std::optional<FailureKind> failure_kind_from_string(std::string_view name);

struct FailureEvent {
  sim::TimePoint at;      // nominal injection time
  FailureKind kind;
  std::uint32_t subject;  // LinkId value for link events, NodeId otherwise
};

/// Apply one churn event to `internet` through its control plane (link and
/// node state changes, IPvN router undeploy/redeploy). FailurePlane and the
/// scenario fuzzer both apply events through this.
void apply_event(EvolvableInternet& internet, const FailureEvent& event);

/// Builder for an ordered churn schedule. Events keep the order implied by
/// their nominal times (stable for ties: insertion order wins).
class FailureSchedule {
 public:
  FailureSchedule& link_down(sim::TimePoint at, net::LinkId link);
  FailureSchedule& link_up(sim::TimePoint at, net::LinkId link);
  /// Down at `at`, back up `outage` later.
  FailureSchedule& link_flap(sim::TimePoint at, sim::Duration outage,
                             net::LinkId link);

  FailureSchedule& node_down(sim::TimePoint at, net::NodeId node);
  FailureSchedule& node_up(sim::TimePoint at, net::NodeId node);
  /// Crash at `at`, recover `outage` later.
  FailureSchedule& node_crash(sim::TimePoint at, sim::Duration outage,
                              net::NodeId node);

  FailureSchedule& member_loss(sim::TimePoint at, net::NodeId router);
  FailureSchedule& member_join(sim::TimePoint at, net::NodeId router);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  /// Events sorted by nominal time (stable).
  const std::vector<FailureEvent>& events() const;

 private:
  FailureSchedule& add(sim::TimePoint at, FailureKind kind, std::uint32_t subject);

  mutable std::vector<FailureEvent> events_;
  mutable bool sorted_ = true;
};

class FailurePlane {
 public:
  /// Both references must outlive the plane (and the simulator run).
  FailurePlane(EvolvableInternet& internet, sim::MetricRegistry& metrics);

  /// Register a data-plane probe measured around every event: a synchronous
  /// forwarding trace from `from` toward `dst`.
  void add_probe(net::NodeId from, net::Ipv4Addr dst);

  /// Arm `schedule`; run the simulator (e.g. internet.converge() or
  /// simulator().run()) to play it out. May be called again once drained.
  void arm(FailureSchedule schedule);

  std::size_t events_applied() const { return applied_; }

 private:
  struct Probe {
    net::NodeId from;
    net::Ipv4Addr dst;
  };

  void arm_next();
  void apply(const FailureEvent& event);
  /// Trace every probe; record delivery rate under `phase` ("during" /
  /// "after") and classify drops into blackholes vs loops.
  void measure(const char* phase);

  EvolvableInternet& internet_;
  sim::MetricRegistry& metrics_;
  std::vector<Probe> probes_;
  std::vector<FailureEvent> events_;
  std::size_t next_ = 0;
  std::size_t applied_ = 0;
};

}  // namespace evo::core
