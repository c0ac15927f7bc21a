// The reference kernel: a fixed, seeded mix of the operations the
// simulator spends its time on (ordered-map inserts, hash-map lookups,
// small heap allocations, a sort). It calls no simulator code, so timing
// it next to every op measures how fast the host is at that moment; the
// op's time divided by it is the op's cost in reference units.
//
// FROZEN: editing this kernel (or its seed or sizes) changes the unit every
// ref metric is expressed in. kRefChecksum pins the computation.
#pragma once

#include <cstdint>

namespace perfbench {

/// Run the kernel once and return its checksum.
std::uint64_t ref_kernel();

/// The checksum ref_kernel() must return; a run whose kernel disagrees is
/// not measuring in reference units and fails.
inline constexpr std::uint64_t kRefChecksum = 18307601292438614245ull;

}  // namespace perfbench
