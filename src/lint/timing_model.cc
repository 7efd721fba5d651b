#include "lint/timing_model.hh"

#include <cmath>

#include "core/logging.hh"

namespace hetarch {
namespace lint {
namespace sched {

DeviceTiming
DeviceTiming::fromDevice(const devices::DeviceModel& dev)
{
    DeviceTiming t;
    t.name = dev.name;
    t.gate1q = dev.gateTime1q;
    t.gate2q = dev.gateTime2q;
    // Storage devices expose their access (SWAP) time through
    // gateTime2q (Table 1); compute devices SWAP at 2q-gate cost.
    t.swap = dev.gateTime2q;
    t.readout = dev.readoutTime;
    // No device model carries a distinct reset figure; unconditional
    // reset rides the readout resonator ring-down.
    t.reset = dev.readoutTime;
    t.t1 = dev.t1;
    t.t2 = dev.t2;
    t.modes = dev.modes;
    t.hasReadout = dev.hasReadout;
    t.storage = dev.role == devices::DeviceRole::Storage;
    return t;
}

DeviceTiming
DeviceTiming::unit()
{
    DeviceTiming t;
    t.name = "unit";
    t.gate1q = 1.0;
    t.gate2q = 1.0;
    t.swap = 1.0;
    t.readout = 1.0;
    t.reset = 1.0;
    t.t1 = 1e18;
    t.t2 = 1e18;
    t.modes = 1;
    t.hasReadout = true;
    t.storage = false;
    return t;
}

const DeviceTiming&
TimingModel::deviceFor(std::uint32_t q) const
{
    HETARCH_ASSERT(q < assignment.size(),
                   "timing model does not cover qubit ", q);
    const auto inst = assignment[q];
    HETARCH_ASSERT(inst < devices.size(),
                   "qubit ", q, " assigned to unknown instance ", inst);
    return devices[inst];
}

TimingModel
TimingModel::uniform(const devices::DeviceModel& dev,
                     std::size_t num_qubits)
{
    TimingModel m;
    m.name = dev.name;
    const auto timing = DeviceTiming::fromDevice(dev);
    m.devices.reserve(num_qubits);
    m.assignment.reserve(num_qubits);
    for (std::size_t q = 0; q < num_qubits; ++q) {
        m.devices.push_back(timing);
        m.assignment.push_back(static_cast<std::uint32_t>(q));
    }
    return m;
}

TimingModel
TimingModel::unit(std::size_t num_qubits)
{
    TimingModel m;
    m.name = "unit";
    const auto timing = DeviceTiming::unit();
    m.devices.reserve(num_qubits);
    m.assignment.reserve(num_qubits);
    for (std::size_t q = 0; q < num_qubits; ++q) {
        m.devices.push_back(timing);
        m.assignment.push_back(static_cast<std::uint32_t>(q));
    }
    return m;
}

TimingModel
TimingModel::withStorage(const devices::DeviceModel& compute,
                         const devices::DeviceModel& storage,
                         std::size_t num_qubits,
                         const std::vector<std::uint32_t>& storage_qubits)
{
    TimingModel m;
    m.name = compute.name + "+" + storage.name;
    const auto compute_timing = DeviceTiming::fromDevice(compute);
    const auto storage_timing = DeviceTiming::fromDevice(storage);
    // Instance 0 is the single shared storage resonator; every other
    // qubit gets a private compute instance.
    m.devices.push_back(storage_timing);
    m.assignment.assign(num_qubits, 0);
    for (std::size_t q = 0; q < num_qubits; ++q) {
        bool stored = false;
        for (auto s : storage_qubits)
            stored = stored || s == q;
        if (stored)
            continue;
        m.assignment[q] =
            static_cast<std::uint32_t>(m.devices.size());
        m.devices.push_back(compute_timing);
    }
    for (auto s : storage_qubits)
        HETARCH_ASSERT(s < num_qubits, "storage qubit ", s,
                       " outside the ", num_qubits, "-qubit register");
    return m;
}

void
TimingModel::scaleDurations(double factor)
{
    HETARCH_ASSERT(factor > 0.0, "duration scale must be positive");
    for (auto& d : devices) {
        d.gate1q *= factor;
        d.gate2q *= factor;
        d.swap *= factor;
        d.readout *= factor;
        d.reset *= factor;
    }
}

double
idleError(double t_ns, double t1_ns, double t2_ns)
{
    HETARCH_ASSERT(t_ns >= 0.0, "negative idle time");
    HETARCH_ASSERT(t1_ns > 0.0 && t2_ns > 0.0,
                   "coherence times must be positive");
    // Entanglement fidelity of amplitude damping composed with the
    // pure dephasing left over once T1 decay's own phase damping is
    // accounted for: gamma_phi = 1/T2 - 1/(2 T1) >= 0 for physical
    // devices (T2 <= 2 T1).
    const double g_phi =
        std::max(0.0, 1.0 / t2_ns - 0.5 / t1_ns);
    const double amp = std::exp(-t_ns / t1_ns);
    const double deph = std::exp(-2.0 * g_phi * t_ns);
    const double sum = 1.0 + std::sqrt(amp) * std::sqrt(deph);
    const double f_ent = 0.25 * (sum * sum + (1.0 - deph) * amp);
    // Average gate infidelity for d = 2: 1 - (2 F_e + 1) / 3.
    const double err = 1.0 - (2.0 * f_ent + 1.0) / 3.0;
    return std::min(1.0, std::max(0.0, err));
}

} // namespace sched
} // namespace lint
} // namespace hetarch
