#include "dse/experiments.hh"

#include <algorithm>
#include <cmath>

#include "cells/characterize.hh"
#include "cells/design_rules.hh"
#include "cells/standard_cells.hh"
#include "core/units.hh"
#include "devices/device.hh"
#include "distill/module_sim.hh"
#include "dse/builder_registry.hh"
#include "exec/thread_pool.hh"
#include "lint/dataflow.hh"
#include "lint/schedule.hh"
#include "qec/css_code.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "teleport/code_teleport.hh"
#include "uec/experiment.hh"

namespace hetarch {
namespace dse {

using namespace units;

namespace {

std::size_t
scaled(double base, const RunScale& scale)
{
    return static_cast<std::size_t>(
        std::max(100.0, base * scale.shotScale));
}

} // namespace

TextTable
table1Devices()
{
    TextTable t({"device", "role", "T1(ms)", "T2(ms)", "gate", "error",
                 "conn", "modes", "ctrl", "area(mm^2)"});
    for (const auto& d : devices::table1Catalog()) {
        t.addRow({d.name,
                  d.role == devices::DeviceRole::Compute ? "compute"
                                                         : "storage",
                  formatFixed(units::toMs(d.t1), 1),
                  formatFixed(units::toMs(d.t2), 1),
                  formatFixed(d.gateTime2q, 0) + "ns",
                  formatSci(d.gateError, 2),
                  std::to_string(d.connectivity),
                  std::to_string(d.modes),
                  std::to_string(d.control.total()),
                  formatFixed(d.footprint.area(), 1)});
    }
    return t;
}

TextTable
table2Cells()
{
    TextTable t({"cell", "devices", "couplings", "readouts", "drc",
                 "op", "duration(ns)", "error"});
    const auto storage = devices::multimodeResonator3D();
    const auto compute = devices::fixedFrequencyTransmon();

    auto add_cell = [&](const cells::StandardCell& cell,
                        const cells::CellCharacterization& ch) {
        const bool clean =
            cells::checkDesignRules(cell, cell.readoutCount()).clean();
        bool first = true;
        for (const auto& op : ch.ops) {
            t.addRow({first ? cell.name() : "",
                      first ? std::to_string(cell.deviceList().size())
                            : "",
                      first ? std::to_string(cell.couplings().size())
                            : "",
                      first ? std::to_string(cell.readoutCount()) : "",
                      first ? (clean ? "pass" : "FAIL") : "", op.name,
                      formatFixed(op.duration, 0),
                      formatSci(op.errorRate, 3)});
            first = false;
        }
    };

    const auto reg = cells::makeRegister(storage, compute);
    add_cell(reg, cells::characterizeRegister(reg));
    const auto pc = cells::makeParCheck(compute);
    add_cell(pc, cells::characterizeParCheck(pc));
    const auto seqop = cells::makeSeqOp(storage, compute);
    add_cell(seqop, cells::characterizeSeqOp(seqop));
    const auto usc = cells::makeUsc(storage, compute);
    add_cell(usc, cells::characterizeUsc(usc));
    const auto usc_ext = cells::makeUscExt(storage, compute);
    add_cell(usc_ext, cells::characterizeUsc(usc_ext));
    return t;
}

TextTable
scheduleBurdenTable()
{
    TextTable t({"circuit", "device", "latency(us)", "idle(us)",
                 "idle-bound", "hazards", "score(us)"});
    const std::vector<devices::DeviceModel> archs = {
        devices::fixedFrequencyTransmon(), devices::fluxTunableQubit()};
    for (const std::size_t d : {3u, 5u, 7u}) {
        const auto circ =
            qec::surfaceMemoryZ(d, d, qec::CircuitNoise{});
        for (const auto& dev : archs) {
            // The fault analysis comes from the cache, so the idle
            // bound is evaluated at k = ceil(distance / 2); the
            // schedule pass runs fresh for each device.
            const auto faults =
                qec::DecoderCache::instance().faultAnalysis(circ);
            lint::sched::SchedOptions options;
            options.faults = faults.get();
            const auto a = lint::sched::analyzeSchedule(
                circ,
                lint::sched::TimingModel::uniform(dev, circ.numQubits()),
                options);
            const double idle_bound = a.certifiedIdleBound();
            const std::size_t hazards = a.hazardErrors();
            // Rank key: latency inflated by the idle-decoherence
            // budget.  A hazardous schedule cannot run, so it sorts
            // last.
            const double score =
                hazards > 0 ? 1e300 : a.criticalPathNs * (1.0 + idle_bound);
            t.addRow({"surface-d" + std::to_string(d), dev.name,
                      formatFixed(units::toUs(a.criticalPathNs), 1),
                      formatFixed(units::toUs(a.totalIdleNs), 1),
                      formatSci(idle_bound, 3), std::to_string(hazards),
                      formatFixed(units::toUs(score), 1)});
        }
    }
    return t;
}

namespace {

/**
 * Distance-3 repetition memory whose data qubit 0 is parked on a
 * storage mode (qubit 5) across the inter-round gap — the programmatic
 * twin of tests/lint/fixtures/flow/clean_cell.circ, used to compare
 * storage devices on identical traffic.
 */
stab::Circuit
parkedRepetitionCell()
{
    stab::Circuit c;
    c.reset(3);
    c.reset(4);
    for (std::uint32_t q : {0u, 1u, 2u})
        c.xError(q, 0.01);
    c.cx(0, 3);
    c.cx(1, 3);
    c.cx(1, 4);
    c.cx(2, 4);
    c.swap(0, 5);
    const auto m3 = c.measureReset(3);
    const auto m4 = c.measureReset(4);
    c.detector({m3});
    c.detector({m4});
    c.xError(1, 0.01);
    c.xError(2, 0.01);
    c.swap(0, 5);
    const auto d0 = c.measure(0);
    const auto d1 = c.measure(1);
    const auto d2 = c.measure(2);
    c.detector({d0, d1, m3});
    c.detector({d1, d2, m4});
    c.observableInclude(0, {d2});
    return c;
}

} // namespace

TextTable
flowPressureTable()
{
    TextTable t({"circuit", "storage", "swaps", "movement(us)", "peak",
                 "storage(q*us)", "hazards", "budget"});
    const auto compute = devices::fixedFrequencyTransmon();

    auto add_row = [&](const std::string& name,
                       const std::string& storage,
                       const stab::Circuit& circ,
                       const lint::sched::TimingModel& model) {
        // One cached fault analysis per circuit, a fresh flow pass per
        // model; the budget column is the certified end-to-end bound.
        const auto faults =
            qec::DecoderCache::instance().faultAnalysis(circ);
        lint::flow::FlowOptions options;
        options.faults = faults.get();
        options.gateBudget = true;
        const auto a = lint::flow::analyzeFlow(circ, model, options);
        t.addRow({name, storage, std::to_string(a.swapCount),
                  formatFixed(units::toUs(a.movementNs), 2),
                  std::to_string(a.peakStorageOccupancy),
                  formatFixed(units::toUs(a.storageQubitNs), 2),
                  std::to_string(a.hazardErrors()),
                  formatSci(a.maxBudget(), 3)});
    };

    // Registry builders on the homogeneous transmon assignment: zero
    // movement by construction, so the budget column is the pure
    // compute-side certified bound.
    for (const auto& b : builderRegistry()) {
        const auto circ = b.make();
        add_row(b.name, "-", circ,
                lint::sched::TimingModel::uniform(compute,
                                                  circ.numQubits()));
    }

    // Heterogeneous comparison: the same parked repetition cell costed
    // against each Table 1 storage device.  Identical traffic, so the
    // rows differ only in swap latency and storage-side decoherence.
    const auto cell = parkedRepetitionCell();
    const std::vector<devices::DeviceModel> storages = {
        devices::quantumMemory3D(), devices::multimodeResonator3D(),
        devices::onChipMultimodeResonator()};
    for (const auto& storage : storages) {
        add_row("parked-rep-d3", storage.name, cell,
                lint::sched::TimingModel::withStorage(
                    compute, storage, cell.numQubits(), {5}));
    }
    return t;
}

TextTable
fig3DistillationTrace(const RunScale& scale)
{
    TextTable t({"time(us)", "het_best_infidelity", "hom_best_infidelity"});

    auto run = [&](bool het) {
        distill::DistillConfig cfg;
        cfg.heterogeneous = het;
        cfg.ts = het ? 12.5 * ms : cfg.tc;
        cfg.epRate = 1.0 * MHz;
        cfg.epInfidelity = 0.05;
        cfg.seed = scale.seed;
        return distill::simulateDistillation(cfg, 100.0 * us,
                                             2.0 * us);
    };
    distill::DistillResult het, hom;
    exec::parallelInvoke({
        [&] { het = run(true); },
        [&] { hom = run(false); },
    });

    // Resample both traces on a common 2 us grid.
    auto value_at = [](const distill::DistillResult& res, double t) {
        double best = 1.0;
        for (const auto& p : res.trace) {
            if (p.time <= t)
                best = p.bestInfidelity;
            else
                break;
        }
        return best;
    };
    for (double time = 0.0; time <= 100.0 * us; time += 2.0 * us) {
        t.addRow({formatFixed(units::toUs(time), 0),
                  formatFixed(value_at(het, time), 5),
                  formatFixed(value_at(hom, time), 5)});
    }
    return t;
}

TextTable
fig4DistillationRate(const RunScale& scale)
{
    TextTable t({"gen_rate(kHz)", "Ts(ms)", "arch", "distilled_per_ms"});
    const std::vector<double> rates_khz = {100,  200,  500,  1000,
                                           2000, 5000, 10000};
    const std::vector<double> ts_ms = {0.5, 1.0, 2.5, 5.0};

    // Materialize the full grid, evaluate every configuration as a
    // small trajectory ensemble on the exec engine, then emit rows in
    // the original order.
    struct Point
    {
        double rate_khz;
        double ts_ms;
        bool het;
    };
    std::vector<Point> grid;
    for (double rate : rates_khz) {
        for (double ts : ts_ms)
            grid.push_back({rate, ts, true});
        grid.push_back({rate, 0.5, false});
    }

    constexpr std::size_t kTrajectories = 3;
    std::vector<double> rates(grid.size(), 0.0);
    exec::parallelFor(grid.size(), [&](std::size_t i) {
        distill::DistillConfig cfg;
        cfg.heterogeneous = grid[i].het;
        cfg.ts = grid[i].het ? grid[i].ts_ms * ms : cfg.tc;
        cfg.epRate = grid[i].rate_khz * kHz;
        cfg.epInfidelity = 0.03;
        cfg.seed = scale.seed;
        const auto ens = distill::simulateDistillationEnsemble(
            cfg, scale.shotScale * 5.0 * ms, kTrajectories);
        rates[i] = ens.meanDistilledRatePerMs();
    });

    for (std::size_t i = 0; i < grid.size(); ++i)
        t.addRow({formatFixed(grid[i].rate_khz, 0),
                  formatFixed(grid[i].ts_ms, 1),
                  grid[i].het ? "het" : "hom",
                  formatFixed(rates[i], 2)});
    return t;
}

TextTable
fig6SurfaceAlpha(const RunScale& scale)
{
    TextTable t({"alpha", "series", "logical_error_per_cycle"});
    const std::size_t d = 13;
    const double base = 0.1 * ms;
    const std::vector<double> alphas = {1, 2, 3, 4, 5, 6, 8};
    const auto shots = scaled(2000, scale);

    // Job 2k   = data-coherence series at alphas[k],
    // job 2k+1 = ancilla series; evaluated concurrently, emitted in
    // the original row order.
    std::vector<double> values(2 * alphas.size(), 0.0);
    exec::parallelFor(values.size(), [&](std::size_t i) {
        const double alpha = alphas[i / 2];
        const bool data_series = (i % 2) == 0;
        qec::CircuitNoise noise;
        noise.p2 = 1e-2;
        noise.p1 = 1e-3;
        noise.dataT1 = noise.dataT2 = data_series ? base * alpha : base;
        noise.ancT1 = noise.ancT2 = data_series ? base : base * alpha;
        const std::uint64_t seed = scale.seed +
                                   (data_series ? 0 : 100) +
                                   static_cast<int>(alpha);
        values[i] =
            qec::surfaceLogicalErrorPerRound(d, d, noise, shots, seed);
    });
    for (std::size_t i = 0; i < values.size(); ++i)
        t.addRow({formatFixed(alphas[i / 2], 0),
                  i % 2 == 0 ? "Tcd=alpha*100us" : "Tca=alpha*100us",
                  formatSci(values[i], 3)});
    return t;
}

TextTable
fig7SurfaceRatio(const RunScale& scale)
{
    TextTable t({"distance", "Tcd/Tca", "logical_error_per_cycle"});
    const double base = 0.1 * ms;
    const std::vector<std::size_t> distances = {5, 7, 9, 11, 13, 15, 18};
    const std::vector<double> ratios = {1, 2, 3, 5, 8};
    const auto shots = scaled(1000, scale);

    std::vector<double> values(distances.size() * ratios.size(), 0.0);
    exec::parallelFor(values.size(), [&](std::size_t i) {
        const std::size_t d = distances[i / ratios.size()];
        const double ratio = ratios[i % ratios.size()];
        qec::CircuitNoise noise;
        noise.p2 = 1e-2;
        noise.p1 = 1e-3;
        noise.dataT1 = noise.dataT2 = base * ratio;
        noise.ancT1 = noise.ancT2 = base;
        values[i] = qec::surfaceLogicalErrorPerRound(
            d, d, noise, shots,
            scale.seed + d * 10 + static_cast<std::size_t>(ratio));
    });
    for (std::size_t i = 0; i < values.size(); ++i)
        t.addRow({std::to_string(distances[i / ratios.size()]),
                  formatFixed(ratios[i % ratios.size()], 0),
                  formatSci(values[i], 3)});
    return t;
}

TextTable
fig9UecTsSweep(const RunScale& scale)
{
    TextTable t({"code", "Ts(ms)", "logical_error_per_round"});
    const std::vector<double> ts_ms = {0.5, 1, 2, 5, 10, 20, 50};
    const auto shots = scaled(3000, scale);

    const auto zoo = qec::paperCodeZoo();
    std::vector<double> values(zoo.size() * ts_ms.size(), 0.0);
    exec::parallelFor(values.size(), [&](std::size_t i) {
        const auto& code = zoo[i / ts_ms.size()];
        const double ts = ts_ms[i % ts_ms.size()];
        values[i] = uec::uecLogicalErrorPerRound(
            code, ts * ms, 3, shots,
            scale.seed + static_cast<std::uint64_t>(ts * 7));
    });
    for (std::size_t i = 0; i < values.size(); ++i)
        t.addRow({zoo[i / ts_ms.size()].name,
                  formatFixed(ts_ms[i % ts_ms.size()], 1),
                  formatSci(values[i], 3)});
    return t;
}

TextTable
table3UecComparison(const RunScale& scale)
{
    TextTable t({"code", "pseudothreshold", "het(Ts=50ms)", "hom",
                 "reduction"});
    const auto shots = scaled(4000, scale);
    const auto zoo = qec::paperCodeZoo();
    struct Row
    {
        double pt = 0.0, het = 0.0, hom = 0.0;
    };
    std::vector<Row> rows(zoo.size());
    exec::parallelFor(zoo.size(), [&](std::size_t i) {
        const auto& code = zoo[i];
        rows[i].pt =
            uec::pseudothreshold(code, scaled(3000, scale), scale.seed);
        rows[i].het = uec::uecLogicalErrorPerRound(
            code, 50.0 * ms, 3, shots, scale.seed + 1);
        rows[i].hom = uec::homogeneousLogicalErrorPerRound(
            code, 3, shots, scale.seed + 2);
    });
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        const auto& [pt, het, hom] = rows[i];
        t.addRow({zoo[i].name,
                  pt > 0 ? formatFixed(pt, 4) : "-",
                  formatFixed(het, 4), formatFixed(hom, 4),
                  het > 0 ? formatFixed(hom / het, 2) + "x" : "-"});
    }
    return t;
}

TextTable
fig12CtTsSweep(const RunScale& scale)
{
    TextTable t({"pair", "Ts(ms)", "ct_error_probability"});
    const auto sc3 = qec::makeRotatedSurface(3);
    const auto sc4 = qec::makeRotatedSurface(4);
    const auto rm = qec::makeReedMuller15();
    const auto cc = qec::makeColorCode(5);

    const std::vector<std::pair<std::string,
                                std::pair<qec::CssCode, qec::CssCode>>>
        pairs = {{"SC3&RM", {sc3, rm}},
                 {"SC3&SC4", {sc3, sc4}},
                 {"17QCC&SC4", {cc, sc4}}};
    const std::vector<double> ts_ms = {1, 2, 5, 10, 20, 35, 50};

    std::vector<double> values(pairs.size() * ts_ms.size(), 0.0);
    exec::parallelFor(values.size(), [&](std::size_t i) {
        const auto& codes = pairs[i / ts_ms.size()].second;
        const double ts = ts_ms[i % ts_ms.size()];
        teleport::CtConfig cfg;
        cfg.ts = ts * ms;
        cfg.shots = scaled(2000, scale);
        cfg.seed = scale.seed + static_cast<std::uint64_t>(ts);
        values[i] = teleport::prepareCtState(codes.first, codes.second,
                                             cfg)
                        .errorProbability;
    });
    for (std::size_t i = 0; i < values.size(); ++i)
        t.addRow({pairs[i / ts_ms.size()].first,
                  formatFixed(ts_ms[i % ts_ms.size()], 1),
                  formatFixed(values[i], 3)});
    return t;
}

TextTable
table4CtMatrix(const RunScale& scale)
{
    TextTable t({"codeA", "codeB", "het", "hom", "reduction"});
    const auto zoo = qec::paperCodeZoo();
    const std::vector<std::string> names = {"RM", "17QCC", "ST", "SC3",
                                            "SC4"};
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t i = 0; i < zoo.size(); ++i)
        for (std::size_t j = i + 1; j < zoo.size(); ++j)
            cells.push_back({i, j});

    struct HetHom
    {
        double het = 0.0, hom = 0.0;
    };
    std::vector<HetHom> values(cells.size());
    exec::parallelFor(cells.size(), [&](std::size_t k) {
        const auto [i, j] = cells[k];
        teleport::CtConfig cfg;
        cfg.shots = scaled(2000, scale);
        cfg.seed = scale.seed + i * 31 + j;
        cfg.heterogeneous = true;
        values[k].het =
            teleport::prepareCtState(zoo[i], zoo[j], cfg).errorProbability;
        cfg.heterogeneous = false;
        values[k].hom =
            teleport::prepareCtState(zoo[i], zoo[j], cfg).errorProbability;
    });
    for (std::size_t k = 0; k < cells.size(); ++k) {
        const auto [i, j] = cells[k];
        const auto& [het, hom] = values[k];
        t.addRow({names[i], names[j], formatFixed(het, 3),
                  formatFixed(hom, 3),
                  het > 0 ? formatFixed(hom / het, 2) + "x" : "-"});
    }
    return t;
}

} // namespace dse
} // namespace hetarch
