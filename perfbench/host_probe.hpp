// The host-speed probe of the repository benchmark (see METHOD.md,
// "Host-speed scaling"). It lives in its own target, built with this
// directory's fixed flags and linked to nothing of the library, so that no
// change to the library or its build settings changes the probe's speed.
#pragma once

namespace perfbench {

/// Wall time of one fixed pass of a frozen stand-in for the fig06 slot loop:
/// 100 devices picking among 3 networks by exponential weights, counting
/// shares, drawing a table delay on each switch and writing a per-slot
/// history row. It shares no code with the library, and every call does the
/// same work. Neighbours on a shared host slow it and the library's slot
/// loop together, so the ratio of the two stays put while each alone drifts
/// by tens of percent over minutes. The first call allocates and touches its
/// buffers, which then stay resident until the process ends.
double host_probe_s();

/// host_probe_s() on the reference VM (4 vCPU Xeon, KVM) at its median:
/// timings scaled by kHostProbeReferenceS / host_probe_s() are in
/// reference-host seconds.
inline constexpr double kHostProbeReferenceS = 9e-3;

/// Resident size of the probe's buffers in MB; 0 before the first call.
double host_probe_resident_mb();

}  // namespace perfbench
