/**
 * @file
 * A fixed reference kernel that measures how fast the host runs right now.
 *
 * The benchmark's hosts change speed by up to 2x for minutes at a time
 * (other tenants on the same cores, caches and memory). Timing the same
 * fixed work between the parts of a run, and dividing by its median,
 * turns host seconds into reference seconds: the time a part would take
 * on a host that runs the kernel in kReferenceSeconds. The kernel is part
 * of the benchmark, not of the library, so it is the same on every
 * commit and a change to the library moves only the numerator.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace perfbench {

/// Nominal duration of one kernel run on the reference host.
inline constexpr double kReferenceSeconds = 0.0225;

/**
 * Runs the reference kernel once on the calling thread and returns its
 * host seconds. The kernel mixes what the library's layers spend time on:
 * dependent loads over a 1 MiB table (cache-resident, like the layers'
 * hot data), integer hashing, data-dependent branches and a
 * floating-point chain. It leaves out DRAM latency on purpose: a
 * neighbour's memory traffic slows such a kernel far more than it slows
 * the library.
 */
double calibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H
