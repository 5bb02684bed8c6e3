/**
 * @file
 * A fixed reference computation that measures how fast the host runs
 * right now. On a shared host the same simulation can take twice as
 * long from one minute to the next; timing this kernel next to each
 * simulation lets the benchmark scale host times to one reference
 * speed. The kernel uses only the C++ standard library, never the
 * simulator, so a change to the simulator cannot move it.
 */

#ifndef SIMBENCH_REFKERNEL_HH
#define SIMBENCH_REFKERNEL_HH

namespace simbench
{

/**
 * Run the reference kernel once (about 10 ms on a 4-vCPU Xeon VM) and
 * return its wall seconds. It does the simulator's kinds of host work:
 * an event heap, a hash map, 4 KiB page copies and compares, and
 * indirect calls, on a working set of a few MiB. Its 4 MiB page pool
 * stays resident from the first call on.
 */
double refKernelSeconds();

} // namespace simbench

#endif // SIMBENCH_REFKERNEL_HH
