/**
 * @file
 * Scenario: provisioning an entanglement-distillation module for a
 * networked quantum system (paper Section 4.1's motivating use case).
 *
 * Given a microwave-to-optical link with a known EP generation rate,
 * sweep the storage-coherence axis on the exec engine and report the
 * cheapest storage technology that sustains a target distilled-EP
 * rate at F >= 0.995.
 */

#include <iostream>
#include <vector>

#include "core/table.hh"
#include "core/units.hh"
#include "devices/device.hh"
#include "distill/module_sim.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"

int
main(int argc, char** argv)
{
    // --metrics-out=FILE (or HETARCH_METRICS_OUT) exports the
    // observability snapshot when the example exits.
    hetarch::obs::configureMetricsFromArgs(argc, argv);
    using namespace hetarch;
    using namespace hetarch::units;

    const double link_rate = 500.0 * kHz;
    const double target_rate_per_ms = 10.0;
    std::cout << "Distillation farm designer\n"
              << "link rate: " << link_rate / kHz
              << " kHz, target: " << target_rate_per_ms
              << " distilled EPs/ms at F >= 0.995\n\n";

    // Each storage coherence is an independent design point: evaluate
    // them into per-point slots, then report in grid order, so the
    // output is the same at any worker count.
    const std::vector<double> ts_ms = {0.5, 1.0, 2.5, 5.0, 12.5, 25.0,
                                       50.0};
    std::vector<distill::DistillResult> results(ts_ms.size());
    exec::parallelFor(ts_ms.size(), [&](std::size_t i) {
        distill::DistillConfig cfg;
        cfg.ts = ts_ms[i] * ms;
        cfg.epRate = link_rate;
        cfg.epInfidelity = 0.03;
        cfg.seed = 1234;
        results[i] = distill::simulateDistillation(cfg, 5.0 * ms);
    });

    TextTable table({"ts_ms", "distilled_per_ms", "attempts", "failures"});
    for (std::size_t i = 0; i < ts_ms.size(); ++i) {
        const auto& r = results[i];
        table.addRow({formatSci(ts_ms[i], 4),
                      formatSci(r.distilledRatePerMs(), 4),
                      formatSci(static_cast<double>(r.attempts), 4),
                      formatSci(static_cast<double>(r.failures), 4)});
    }
    table.print(std::cout);

    // Recommend the smallest Ts that meets the target (the grid is
    // ascending).
    double best_ts = -1.0;
    for (std::size_t i = 0; i < ts_ms.size() && best_ts < 0.0; ++i)
        if (results[i].distilledRatePerMs() >= target_rate_per_ms)
            best_ts = ts_ms[i];
    if (best_ts > 0.0) {
        std::cout << "\nrecommendation: storage with Ts >= " << best_ts
                  << " ms meets the target; the "
                  << (best_ts <= 2.0
                          ? devices::onChipMultimodeResonator().name
                          : devices::multimodeResonator3D().name)
                  << " is the smallest-footprint option.\n";
    } else {
        std::cout << "\nno swept design meets the target; raise the "
                     "link rate or storage coherence.\n";
    }
    return 0;
}
