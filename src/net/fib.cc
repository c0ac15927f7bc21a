#include "net/fib.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace evo::net {

const char* to_string(RouteOrigin origin) {
  switch (origin) {
    case RouteOrigin::kConnected: return "connected";
    case RouteOrigin::kIgp: return "igp";
    case RouteOrigin::kBgp: return "bgp";
    case RouteOrigin::kAnycast: return "anycast";
    case RouteOrigin::kStatic: return "static";
  }
  return "?";
}

namespace {

bool prefix_below(const FibEntry& e, const Prefix& p) { return e.prefix < p; }
bool prefix_less(const FibEntry& a, const FibEntry& b) { return a.prefix < b.prefix; }
bool same_prefix(const FibEntry& a, const FibEntry& b) { return a.prefix == b.prefix; }
std::uint64_t length_bit(const Prefix& p) { return std::uint64_t{1} << p.length(); }

}  // namespace

void Fib::insert(const FibEntry& entry) {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), entry.prefix, prefix_below);
  if (it != entries_.end() && it->prefix == entry.prefix) {
    if (*it == entry) return;  // no-op: keep the epoch
    *it = entry;
  } else {
    entries_.insert(it, entry);
  }
  lengths_ |= length_bit(entry.prefix);
  ++epoch_;
}

bool Fib::remove(const Prefix& prefix) {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), prefix, prefix_below);
  if (it == entries_.end() || it->prefix != prefix) return false;
  entries_.erase(it);
  ++epoch_;
  return true;
}

std::size_t Fib::remove_origin(RouteOrigin origin) {
  const std::size_t removed =
      std::erase_if(entries_, [&](const FibEntry& e) { return e.origin == origin; });
  if (removed > 0) {
    recount_lengths();
    ++epoch_;
  }
  return removed;
}

void Fib::replace_origins(std::initializer_list<RouteOrigin> origins,
                          std::span<const FibEntry> entries) {
  const auto in_set = [&](RouteOrigin origin) {
    return std::find(origins.begin(), origins.end(), origin) != origins.end();
  };

  // Desired table for these origins in prefix order; a later duplicate
  // prefix wins, exactly as repeated insert() calls would behave.
  std::vector<FibEntry> desired(entries.begin(), entries.end());
  std::stable_sort(desired.begin(), desired.end(), prefix_less);
  // Unique over the reversed range keeps the last entry of each equal run.
  const auto first_kept = std::unique(desired.rbegin(), desired.rend(), same_prefix);
  desired.erase(desired.begin(), first_kept.base());

  // No-op detection: the existing entries of these origins, in order, must
  // equal `desired`. When so, leave the epoch — compiled state stays valid.
  std::size_t matched = 0;
  bool identical = true;
  for (const FibEntry& e : entries_) {
    if (!in_set(e.origin)) continue;
    if (matched == desired.size() || !(desired[matched] == e)) {
      identical = false;
      break;
    }
    ++matched;
  }
  if (identical && matched == desired.size()) return;

  // Merge the other origins' entries with `desired`; a desired entry
  // overwrites another origin's entry for the same prefix.
  std::vector<FibEntry> merged;
  merged.reserve(entries_.size() + desired.size());
  auto next = desired.begin();
  for (const FibEntry& e : entries_) {
    if (in_set(e.origin)) continue;
    while (next != desired.end() && next->prefix < e.prefix) merged.push_back(*next++);
    if (next != desired.end() && next->prefix == e.prefix) continue;
    merged.push_back(e);
  }
  merged.insert(merged.end(), next, desired.end());
  entries_ = std::move(merged);
  recount_lengths();
  ++epoch_;
}

void Fib::splice_origin(RouteOrigin origin, std::span<const Prefix> prefixes,
                        std::span<const FibEntry> entries) {
  bool changed = false;
  std::size_t at = 0;  // an index: inserts and erases move the entries
  auto next = entries.begin();
  for (const Prefix& prefix : prefixes) {
    at = static_cast<std::size_t>(
        std::lower_bound(entries_.begin() + static_cast<std::ptrdiff_t>(at),
                         entries_.end(), prefix, prefix_below) -
        entries_.begin());
    const auto here = entries_.begin() + static_cast<std::ptrdiff_t>(at);
    const bool held = here != entries_.end() && here->prefix == prefix;
    const bool wanted = next != entries.end() && next->prefix == prefix;
    assert(!wanted || next->origin == origin);
    if (held && here->origin != origin) {
      assert(!wanted);
      continue;
    }
    if (wanted) {
      if (!held) {
        entries_.insert(here, *next);
        lengths_ |= length_bit(prefix);
        changed = true;
      } else if (!(*here == *next)) {
        *here = *next;
        changed = true;
      }
      ++next;
    } else if (held) {
      entries_.erase(here);
      changed = true;
    }
  }
  assert(next == entries.end());
  if (changed) ++epoch_;
}

const FibEntry* Fib::lookup(Ipv4Addr addr) const {
  // Prefixes are unique, so the longest present length that matches wins.
  for (std::uint64_t left = lengths_; left != 0;) {
    const auto length = static_cast<std::uint8_t>(std::bit_width(left) - 1);
    left &= ~(std::uint64_t{1} << length);
    if (const FibEntry* hit = find(Prefix{addr, length})) return hit;
  }
  return nullptr;
}

const FibEntry* Fib::find(const Prefix& prefix) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), prefix, prefix_below);
  return it != entries_.end() && it->prefix == prefix ? &*it : nullptr;
}

void Fib::for_each(const std::function<void(const FibEntry&)>& fn) const {
  for (const FibEntry& e : entries_) fn(e);
}

std::size_t Fib::size_with_origin(RouteOrigin origin) const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [&](const FibEntry& e) { return e.origin == origin; }));
}

void Fib::clear() {
  if (!entries_.empty()) ++epoch_;
  entries_.clear();
  lengths_ = 0;
}

void Fib::recount_lengths() {
  lengths_ = 0;
  for (const FibEntry& e : entries_) lengths_ |= length_bit(e.prefix);
}

std::string Fib::dump() const {
  std::string out;
  for (const FibEntry& e : entries_) {
    out += e.prefix.to_string();
    out += " -> ";
    out += e.next_hop.valid() ? ("node " + std::to_string(e.next_hop.value()))
                              : std::string("local");
    out += " (";
    out += to_string(e.origin);
    out += ", metric ";
    out += std::to_string(e.metric);
    out += ")\n";
  }
  return out;
}

}  // namespace evo::net
