/**
 * @file
 * Timing assignment for static schedule analysis
 * (`hetarch::lint::sched`): which device instance each circuit qubit
 * lives on, and what every operation costs in wall-clock nanoseconds.
 *
 * HetArch's central trade is temporal: storage devices buy long
 * coherence at the price of slow SWAP-only access, compute devices buy
 * fast gates at the price of fast decay.  A TimingModel captures one
 * concrete resolution of that trade for a circuit — a set of device
 * *instances* (each a devices::DeviceModel reduced to its timing and
 * coherence figures) plus a qubit -> instance assignment.  Instances
 * matter: a multimode storage resonator hosts several circuit qubits
 * but owns a single coupling, so concurrency hazards are per instance,
 * not per qubit (see schedule.hh).
 *
 * Durations (all ns):
 *   1q unitaries   gate1q of the qubit's device
 *   CX / CZ        max gate2q over the two devices
 *   SWAP           the storage device's swap time when either end is
 *                  a storage instance, else max gate2q
 *   M / MR         readout (reset rides the measurement ring-down)
 *   R              reset
 *   noise / annotations   untimed (0 ns)
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "devices/device.hh"

namespace hetarch {
namespace lint {
namespace sched {

/** Timing + coherence figures of one device instance. */
struct DeviceTiming
{
    std::string name;        ///< catalog name, for reports
    double gate1q = 0.0;     ///< ns (0: gate set lacks 1q gates)
    double gate2q = 0.0;     ///< ns
    double swap = 0.0;       ///< ns (storage access time)
    double readout = 0.0;    ///< ns
    double reset = 0.0;      ///< ns
    double t1 = 0.0;         ///< ns
    double t2 = 0.0;         ///< ns
    int modes = 1;           ///< qubit capacity of the instance
    bool hasReadout = false;
    bool storage = false;    ///< SWAP-only gate set (DR2 devices)

    /** Reduce a Table 1 device model to its timing figures. */
    static DeviceTiming fromDevice(const devices::DeviceModel& dev);

    /**
     * The unit model: every timed op lasts exactly 1 ns, full gate
     * set, readout everywhere, effectively infinite coherence.  Under
     * it the critical path equals stab::CircuitStats::depth.
     */
    static DeviceTiming unit();
};

/** A full timing assignment for a circuit. */
struct TimingModel
{
    /** Human-readable label ("fixed-frequency-transmon", "unit", ...). */
    std::string name;
    /** Device instances; multimode instances host several qubits. */
    std::vector<DeviceTiming> devices;
    /** Qubit index -> instance index; size covers the circuit. */
    std::vector<std::uint32_t> assignment;

    /** The instance hosting qubit @p q (fatal when unassigned). */
    const DeviceTiming& deviceFor(std::uint32_t q) const;

    /** One private instance of @p dev per qubit (homogeneous). */
    static TimingModel uniform(const devices::DeviceModel& dev,
                               std::size_t num_qubits);

    /** Unit-duration model (see DeviceTiming::unit). */
    static TimingModel unit(std::size_t num_qubits);

    /**
     * Heterogeneous register model: every qubit gets a private
     * @p compute instance except @p storage_qubits, which all share
     * ONE @p storage instance (the multimode-resonator shape whose
     * port and capacity constraints the hazard pass checks).
     */
    static TimingModel withStorage(
        const devices::DeviceModel& compute,
        const devices::DeviceModel& storage, std::size_t num_qubits,
        const std::vector<std::uint32_t>& storage_qubits);

    /** Multiply every duration (not coherence) by @p factor. */
    void scaleDurations(double factor);
};

/**
 * Analytic average error of idling for @p t_ns on a (T1, T2) device:
 * the average-gate-infidelity of the amplitude-damping + pure-
 * dephasing channel, 1 - (2 F_e + 1) / 3 with
 *   F_e = [ (1 + e^{-t/T2})^2 + (1 - e^{-2 g_phi t}) e^{-t/T1} ] / 4,
 * g_phi = 1/T2 - 1/(2 T1).  This is exactly the channel
 * dm::channels::idleChannel applies, so the value cross-validates
 * against cells::characterize's density-matrix "idle-1us" reference
 * points to numerical precision (pinned by tests/lint/schedule_test).
 */
double idleError(double t_ns, double t1_ns, double t2_ns);

} // namespace sched
} // namespace lint
} // namespace hetarch
