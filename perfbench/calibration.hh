/**
 * @file
 * Host-speed calibration kernel owned by the benchmark. It includes
 * nothing from the simulator, so no simulator change can make it
 * faster or slower; its time moves only with the host.
 */

#ifndef PERFBENCH_CALIBRATION_HH
#define PERFBENCH_CALIBRATION_HH

namespace perfbench {

/** Kernel time on the reference host, in ns (README.md,
 * "Calibration kernel", says how it was measured). */
constexpr double kCalNominalNs = 3.9e6;

/**
 * Run the kernel (600 000 xorshift-indexed loads from a shared 4 MiB
 * table, about 4 ms) once on each of @p threads concurrent threads,
 * as many as the measured work uses, and return the mean wall time
 * in ns.
 */
double calibrateNs(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_HH
