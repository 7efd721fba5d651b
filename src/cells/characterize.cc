#include "cells/characterize.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "dm/channels.hh"
#include "dm/density_matrix.hh"
#include "dm/gates.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace cells {

using dm::DensityMatrix;
using namespace dm::gates;

namespace {

obs::Counter& cCharacterizations = obs::counter("cells.characterizations");
obs::Counter& cOpsCharacterized = obs::counter("cells.ops_characterized");

/** Count one finished characterization (and its op table) once. */
void
recordCharacterization(const CellCharacterization& ch)
{
    cCharacterizations.add();
    cOpsCharacterized.add(ch.ops.size());
}

} // namespace

const CharacterizedOp&
CellCharacterization::op(const std::string& name) const
{
    for (const auto& o : ops)
        if (o.name == name)
            return o;
    HETARCH_FATAL(cell, ": no characterized op named '", name, "'");
}

namespace {

/** Find the first device of a role (optionally requiring readout). */
std::size_t
findDevice(const StandardCell& cell, devices::DeviceRole role,
           int readout_state = -1)
{
    const auto& devs = cell.deviceList();
    for (std::size_t i = 0; i < devs.size(); ++i) {
        if (devs[i].model.role != role)
            continue;
        if (readout_state >= 0 &&
            devs[i].readout != static_cast<bool>(readout_state))
            continue;
        return i;
    }
    HETARCH_FATAL(cell.name(), ": expected device not found");
}

/** Apply T1/T2 idling to one qubit of a register. */
void
idle(DensityMatrix& rho, std::size_t q, double t,
     const devices::DeviceModel& dev)
{
    rho.applyKraus(dm::channels::idleChannel(t, dev.t1, dev.t2), {q});
}

/** Average fidelity from entanglement fidelity in dimension d. */
double
avgFromEntanglement(double f_e, double dim)
{
    return (dim * f_e + 1.0) / (dim + 1.0);
}

/**
 * Entanglement fidelity of a single-qubit channel: Bell pair with an
 * ideal reference on qubit 1, channel applied to qubit 0 via @p apply.
 */
template <typename Fn>
double
oneQubitChannelError(Fn&& apply)
{
    DensityMatrix rho = DensityMatrix::bellPair();
    apply(rho, std::size_t{0});
    const double f_e = rho.bellFidelity();
    return 1.0 - avgFromEntanglement(f_e, 2.0);
}

/**
 * Entanglement fidelity of a two-qubit channel that should equal the
 * ideal unitary @p ideal: two Bell pairs, system = qubits {0, 1},
 * references = {2, 3}; after applying the channel the inverse ideal is
 * applied and fidelity against the double Bell state is extracted.
 */
template <typename Fn>
double
twoQubitChannelError(const linalg::Matrix& ideal, Fn&& apply)
{
    // Bell pairs (0,2) and (1,3).
    DensityMatrix rho(4);
    rho.applyUnitary(H(), {0});
    rho.applyUnitary(cnot(), {0, 2});
    rho.applyUnitary(H(), {1});
    rho.applyUnitary(cnot(), {1, 3});
    const DensityMatrix target = rho;

    apply(rho);
    rho.applyUnitary(ideal.dagger(), {0, 1});

    // Entanglement fidelity = overlap with the original pure state.
    // target is pure, so F = Tr(rho_target * rho).
    const double f_e = (target.matrix() * rho.matrix()).trace().real();
    return 1.0 - avgFromEntanglement(std::clamp(f_e, 0.0, 1.0), 4.0);
}

/** Compose independent error rates: 1 - prod(1 - e_i). */
double
compose(const std::vector<double>& errs)
{
    double keep = 1.0;
    for (auto e : errs)
        keep *= 1.0 - e;
    return 1.0 - keep;
}

} // namespace

CellCharacterization
characterizeRegister(const StandardCell& reg)
{
    const auto s = findDevice(reg, devices::DeviceRole::Storage);
    const auto c = findDevice(reg, devices::DeviceRole::Compute);
    const auto& storage = reg.deviceList()[s].model;
    const auto& compute = reg.deviceList()[c].model;

    const double t_swap = storage.gateTime2q;

    // Load: qubit starts on the compute device, SWAPs into storage,
    // decohering at the source device's rate for the swap time.
    auto swap_error = [&](bool into_storage) {
        return oneQubitChannelError([&](DensityMatrix& rho,
                                        std::size_t q) {
            idle(rho, q, t_swap, into_storage ? compute : storage);
        });
    };

    CellCharacterization out;
    out.cell = reg.name();
    out.ops.push_back({"load", t_swap, swap_error(true)});
    out.ops.push_back({"unload", t_swap, swap_error(false)});
    out.ops.push_back(
        {"roundtrip", 2.0 * t_swap,
         compose({swap_error(true), swap_error(false)})});

    const double us = 1000.0;
    const double idle_err = oneQubitChannelError(
        [&](DensityMatrix& rho, std::size_t q) {
            idle(rho, q, us, storage);
        });
    out.ops.push_back({"idle-1us", us, idle_err});
    recordCharacterization(out);
    return out;
}

CellCharacterization
characterizeParCheck(const StandardCell& cell)
{
    const auto a = findDevice(cell, devices::DeviceRole::Compute, 0);
    const auto b = findDevice(cell, devices::DeviceRole::Compute, 1);
    const auto& dev_a = cell.deviceList()[a].model;
    const auto& dev_b = cell.deviceList()[b].model;

    const double t2q = dev_a.gateTime2q;
    const double t_read = dev_b.readoutTime;

    const double cnot_err = twoQubitChannelError(
        cnot(), [&](DensityMatrix& rho) {
            idle(rho, 0, t2q, dev_a);
            idle(rho, 1, t2q, dev_b);
            rho.applyUnitary(cnot(), {0, 1});
        });

    // During readout of qubit b, the kept qubit a idles.
    const double kept_idle_err = oneQubitChannelError(
        [&](DensityMatrix& rho, std::size_t q) {
            idle(rho, q, t_read, dev_a);
        });

    CellCharacterization out;
    out.cell = cell.name();
    out.ops.push_back({"cnot", t2q, cnot_err});
    out.ops.push_back({"parity-check", t2q + t_read,
                       compose({cnot_err, kept_idle_err})});
    recordCharacterization(out);
    return out;
}

CellCharacterization
characterizeSeqOp(const StandardCell& cell)
{
    const auto s = findDevice(cell, devices::DeviceRole::Storage);
    const auto c = findDevice(cell, devices::DeviceRole::Compute, 0);
    const auto p = findDevice(cell, devices::DeviceRole::Compute, 1);
    const auto& storage = cell.deviceList()[s].model;
    const auto& compute = cell.deviceList()[c].model;
    const auto& parity = cell.deviceList()[p].model;

    const double t_swap = storage.gateTime2q;
    const double t2q = compute.gateTime2q;
    const double t_read = parity.readoutTime;

    // stored-cnot: both qubits swap compute<->storage around the gate.
    const double stored_cnot_err = twoQubitChannelError(
        cnot(), [&](DensityMatrix& rho) {
            // Unload: decoherence at storage+compute rates during swap.
            for (std::size_t q : {0, 1}) {
                idle(rho, q, t_swap, storage);
                idle(rho, q, t_swap, compute);
            }
            // Gate on the compute devices.
            idle(rho, 0, t2q, compute);
            idle(rho, 1, t2q, compute);
            rho.applyUnitary(cnot(), {0, 1});
            // Reload.
            for (std::size_t q : {0, 1}) {
                idle(rho, q, t_swap, storage);
                idle(rho, q, t_swap, compute);
            }
        });

    // Idling in storage while the parity ancilla is read out.
    const double verify_idle_err = compose(
        {oneQubitChannelError([&](DensityMatrix& rho, std::size_t q) {
             idle(rho, q, t_read, storage);
         }),
         oneQubitChannelError([&](DensityMatrix& rho, std::size_t q) {
             idle(rho, q, t_read, storage);
         })});

    CellCharacterization out;
    out.cell = cell.name();
    const double t_stored = 2.0 * t_swap + t2q;
    out.ops.push_back({"stored-cnot", t_stored, stored_cnot_err});
    out.ops.push_back({"verified-cnot", t_stored + t2q + t_read,
                       compose({stored_cnot_err, verify_idle_err})});
    recordCharacterization(out);
    return out;
}

CellCharacterization
characterizeUsc(const StandardCell& cell)
{
    const auto s = findDevice(cell, devices::DeviceRole::Storage);
    const auto c = findDevice(cell, devices::DeviceRole::Compute, 0);
    const auto p = findDevice(cell, devices::DeviceRole::Compute, 1);
    const auto& storage = cell.deviceList()[s].model;
    const auto& compute = cell.deviceList()[c].model;
    const auto& parity = cell.deviceList()[p].model;

    const double t_swap = storage.gateTime2q;
    const double t2q = compute.gateTime2q;
    const double t_read = parity.readoutTime;

    // Primitive errors via density-matrix simulation.
    const double roundtrip_err = oneQubitChannelError(
        [&](DensityMatrix& rho, std::size_t q) {
            idle(rho, q, 2 * t_swap, storage);
            idle(rho, q, 2 * t_swap, compute);
        });
    const double cnot_err = twoQubitChannelError(
        cnot(), [&](DensityMatrix& rho) {
            idle(rho, 0, t2q, compute);
            idle(rho, 1, t2q, parity);
            rho.applyUnitary(cnot(), {0, 1});
        });

    CellCharacterization out;
    out.cell = cell.name();
    for (int w = 2; w <= 6; ++w) {
        // Serialized: per data qubit one storage roundtrip + one CNOT;
        // the ancilla idles across the whole check and is then read.
        const double duration =
            w * (2.0 * t_swap + t2q) + t_read;
        const double anc_idle_err = oneQubitChannelError(
            [&](DensityMatrix& rho, std::size_t q) {
                idle(rho, q, duration - t_read, parity);
            });
        std::vector<double> errs;
        for (int i = 0; i < w; ++i) {
            errs.push_back(roundtrip_err);
            errs.push_back(cnot_err);
        }
        errs.push_back(anc_idle_err);
        out.ops.push_back({"stabilizer-check-w" + std::to_string(w),
                           duration, compose(errs)});
    }
    recordCharacterization(out);
    return out;
}

} // namespace cells
} // namespace hetarch
