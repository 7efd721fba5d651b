#include "uec/lattice_baseline.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "lint/lint.hh"
#include "qec/css_circuit.hh"
#include "qec/noise_model.hh"

namespace hetarch {
namespace uec {

namespace {

int
manhattan(int side, int a, int b)
{
    const int ar = a / side, ac = a % side;
    const int br = b / side, bc = b % side;
    return std::abs(ar - br) + std::abs(ac - bc);
}

/** Cells adjacent to @p cell on the grid. */
std::vector<int>
neighbors(int side, int cell)
{
    std::vector<int> out;
    const int r = cell / side, c = cell % side;
    if (r > 0)
        out.push_back(cell - side);
    if (r + 1 < side)
        out.push_back(cell + side);
    if (c > 0)
        out.push_back(cell - 1);
    if (c + 1 < side)
        out.push_back(cell + 1);
    return out;
}

/**
 * BFS shortest path from @p from to any cell adjacent to @p target,
 * walking only over cells where @p blocked is false (@p from itself is
 * always allowed).  Returns the cell sequence including @p from; empty
 * when unreachable.
 */
std::vector<int>
walkPath(int side, int from, int target, const std::vector<bool>& blocked)
{
    std::vector<int> goal_cells;
    for (auto n : neighbors(side, target))
        if (!blocked[static_cast<std::size_t>(n)] || n == from)
            goal_cells.push_back(n);
    if (goal_cells.empty())
        return {};
    std::vector<int> parent(static_cast<std::size_t>(side * side), -2);
    std::vector<int> queue{from};
    parent[static_cast<std::size_t>(from)] = -1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int cur = queue[head];
        if (std::find(goal_cells.begin(), goal_cells.end(), cur) !=
            goal_cells.end()) {
            std::vector<int> path;
            for (int c = cur; c != -1;
                 c = parent[static_cast<std::size_t>(c)])
                path.push_back(c);
            std::reverse(path.begin(), path.end());
            return path;
        }
        for (auto n : neighbors(side, cur)) {
            if (parent[static_cast<std::size_t>(n)] != -2)
                continue;
            if (blocked[static_cast<std::size_t>(n)])
                continue;
            parent[static_cast<std::size_t>(n)] = cur;
            queue.push_back(n);
        }
    }
    return {};
}

} // namespace

LatticeEmbedding
embedOnLattice(const qec::CssCode& code)
{
    const std::size_t n_checks = code.zChecks.size() + code.xChecks.size();
    const auto total = code.n + n_checks;
    // The sea of qubits may be as large as needed (paper Section 4).
    // Data qubits sit on the quarter-density (even row, even column)
    // sublattice, which guarantees that removing them leaves the grid
    // connected and every data qubit reachable by a walking ancilla.
    const int data_side = 2 * static_cast<int>(std::ceil(
                                  std::sqrt(static_cast<double>(code.n)))) -
                          1;
    const int side = std::max(
        data_side + 1,
        static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(total) * 2.0))));

    LatticeEmbedding emb;
    emb.side = side;
    emb.dataCell.assign(code.n, -1);
    emb.checkCell.assign(n_checks, -1);
    std::vector<bool> used(static_cast<std::size_t>(side * side), false);

    // Interaction partners: qubits sharing a check.
    std::vector<std::vector<std::uint32_t>> partners(code.n);
    auto link = [&](const std::vector<std::uint32_t>& sup) {
        for (auto a : sup)
            for (auto b : sup)
                if (a != b)
                    partners[a].push_back(b);
    };
    for (const auto& s : code.zChecks)
        link(s);
    for (const auto& s : code.xChecks)
        link(s);

    // Greedy data placement: highest-degree qubit at the centre, then
    // each next qubit at the free cell minimizing distance to placed
    // partners.
    std::vector<std::uint32_t> order(code.n);
    for (std::uint32_t q = 0; q < code.n; ++q)
        order[q] = q;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return partners[a].size() > partners[b].size();
                     });

    auto place_at_best = [&](auto score) {
        int best_cell = -1;
        double best = 1e18;
        for (int cell = 0; cell < side * side; ++cell) {
            if (used[static_cast<std::size_t>(cell)])
                continue;
            const double s = score(cell);
            if (s < best) {
                best = s;
                best_cell = cell;
            }
        }
        HETARCH_ASSERT(best_cell >= 0, "lattice full");
        used[static_cast<std::size_t>(best_cell)] = true;
        return best_cell;
    };

    const int centre = (side / 2) * side + side / 2;
    for (auto q : order) {
        emb.dataCell[q] = place_at_best([&](int cell) {
            // Data sits on the (even, even) sublattice only.
            const int r = cell / side, c = cell % side;
            if (r % 2 != 0 || c % 2 != 0)
                return 1e17;
            double s = 0.0;
            bool any = false;
            for (auto p : partners[q]) {
                if (emb.dataCell[p] >= 0) {
                    s += manhattan(side, cell, emb.dataCell[p]);
                    any = true;
                }
            }
            if (!any)
                s = manhattan(side, cell, centre);
            return s;
        });
    }

    // Ancillas on the odd sublattice (the walkable one), at the free
    // cell nearest their support centroid.
    std::size_t check = 0;
    auto place_checks = [&](const auto& checks) {
        for (const auto& sup : checks) {
            emb.checkCell[check++] = place_at_best([&](int cell) {
                const int r = cell / side, c = cell % side;
                if (r % 2 == 0 && c % 2 == 0)
                    return 1e17;
                double s = 0.0;
                for (auto q : sup)
                    s += manhattan(side, cell, emb.dataCell[q]);
                return s;
            });
        }
    };
    place_checks(code.zChecks);
    place_checks(code.xChecks);
    return emb;
}

stab::Circuit
latticeMemoryZ(const qec::CssCode& code, const LatticeEmbedding& emb,
               std::size_t rounds, const LatticeNoise& noise)
{
    HETARCH_ASSERT(rounds >= 1, "need at least one round");
    const int side = emb.side;
    const auto cells = static_cast<std::size_t>(side * side);

    // Every lattice cell is a transmon; circuit qubit label == cell
    // id.  SWAP ops move *states* between these fixed labels, so a
    // walking ancilla is always addressed by the cell it currently
    // stands on.
    stab::Circuit circ(cells);
    qec::MemoryZRecord record(circ, code);

    // Cells holding data qubits are never walked through.
    std::vector<bool> blocked(cells, false);
    for (auto c : emb.dataCell)
        blocked[static_cast<std::size_t>(c)] = true;

    // Each check runs as an ancilla walk: the ancilla tours cells
    // adjacent to its support (nearest-neighbour order), doing one
    // CNOT per data qubit, and is measured in place.  One tour is far
    // cheaper than per-qubit SWAP round trips -- the same economy a
    // routing-aware transpiler achieves on the sea of qubits.
    struct TourStep
    {
        std::vector<int> walk;   ///< cells walked (incl. start)
        std::uint32_t dataQubit; ///< qubit checked from walk.back()
    };
    struct CheckInfo
    {
        std::size_t index;
        bool isX;
        std::vector<TourStep> tour;
        std::vector<int> footprint; // cells touched
        double duration;
    };
    std::vector<CheckInfo> infos;
    std::size_t check = 0;
    auto describe = [&](const auto& checks, bool is_x) {
        for (const auto& sup : checks) {
            CheckInfo info;
            info.index = check;
            info.isX = is_x;
            info.footprint.push_back(emb.checkCell[check]);
            double dur = is_x ? 2.0 * 40.0 : 0.0;

            std::vector<std::uint32_t> remaining(sup.begin(), sup.end());
            int at = emb.checkCell[check];
            while (!remaining.empty()) {
                // Nearest unvisited support qubit.
                std::size_t best = 0;
                int best_d = 1 << 30;
                for (std::size_t i = 0; i < remaining.size(); ++i) {
                    const int d = manhattan(side, at,
                                            emb.dataCell[remaining[i]]);
                    if (d < best_d) {
                        best_d = d;
                        best = i;
                    }
                }
                const auto q = remaining[best];
                remaining.erase(remaining.begin() +
                                static_cast<std::ptrdiff_t>(best));
                auto walk = walkPath(side, at, emb.dataCell[q], blocked);
                HETARCH_ASSERT(!walk.empty(),
                               "no ancilla walk path on the lattice; "
                               "embedding too dense");
                dur += static_cast<double>(walk.size() - 1) * noise.t2q;
                dur += noise.t2q; // the CNOT itself
                at = walk.back();
                for (auto cell : walk)
                    info.footprint.push_back(cell);
                info.footprint.push_back(emb.dataCell[q]);
                info.tour.push_back({std::move(walk), q});
            }
            dur += noise.tMeas;
            info.duration = dur;
            std::sort(info.footprint.begin(), info.footprint.end());
            info.footprint.erase(std::unique(info.footprint.begin(),
                                             info.footprint.end()),
                                 info.footprint.end());
            infos.push_back(std::move(info));
            ++check;
        }
    };
    describe(code.zChecks, false);
    describe(code.xChecks, true);

    std::vector<std::vector<std::size_t>> layers;
    {
        std::vector<std::vector<int>> layer_cells;
        for (std::size_t i = 0; i < infos.size(); ++i) {
            bool placed = false;
            for (std::size_t l = 0; l < layers.size() && !placed; ++l) {
                std::vector<int> inter;
                std::set_intersection(layer_cells[l].begin(),
                                      layer_cells[l].end(),
                                      infos[i].footprint.begin(),
                                      infos[i].footprint.end(),
                                      std::back_inserter(inter));
                if (inter.empty()) {
                    layers[l].push_back(i);
                    std::vector<int> merged;
                    std::set_union(layer_cells[l].begin(),
                                   layer_cells[l].end(),
                                   infos[i].footprint.begin(),
                                   infos[i].footprint.end(),
                                   std::back_inserter(merged));
                    layer_cells[l] = std::move(merged);
                    placed = true;
                }
            }
            if (!placed) {
                layers.push_back({i});
                layer_cells.push_back(infos[i].footprint);
            }
        }
    }

    std::vector<double> last(cells, 0.0);
    auto idle_to = [&](std::uint32_t q, double t) {
        if (t > last[q]) {
            const auto p = qec::idleTwirl(t - last[q], noise.tc, noise.tc);
            circ.pauliChannel1(q, p.px, p.py, p.pz);
            last[q] = t;
        }
    };
    auto routed_swap = [&](std::uint32_t a, std::uint32_t b, double end) {
        idle_to(a, end);
        idle_to(b, end);
        circ.swap(a, b);
        circ.depolarize2(a, b, noise.p2);
    };

    double t_now = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (const auto& layer : layers) {
            double layer_end = t_now;
            for (auto idx : layer) {
                const auto& info = infos[idx];
                double t = t_now;
                // The transmon at the home cell becomes the ancilla;
                // reset clears any idle errors it picked up while
                // parked.
                auto anc = static_cast<std::uint32_t>(
                    emb.checkCell[info.index]);
                idle_to(anc, t);
                circ.reset(anc);
                if (info.isX) {
                    t += 40.0;
                    idle_to(anc, t);
                    circ.h(anc);
                }
                for (const auto& step : info.tour) {
                    // Walk the ancilla state along the path.
                    for (std::size_t h = 0; h + 1 < step.walk.size();
                         ++h) {
                        t += noise.t2q;
                        const auto ca =
                            static_cast<std::uint32_t>(step.walk[h]);
                        const auto cb =
                            static_cast<std::uint32_t>(step.walk[h + 1]);
                        routed_swap(ca, cb, t);
                    }
                    anc = static_cast<std::uint32_t>(step.walk.back());
                    t += noise.t2q;
                    const auto data = static_cast<std::uint32_t>(
                        emb.dataCell[step.dataQubit]);
                    idle_to(anc, t);
                    idle_to(data, t);
                    if (info.isX)
                        circ.cx(anc, data);
                    else
                        circ.cx(data, anc);
                    circ.depolarize2(data, anc, noise.p2);
                }
                if (info.isX) {
                    t += 40.0;
                    idle_to(anc, t);
                    circ.h(anc);
                }
                t += noise.tMeas;
                idle_to(anc, t);
                circ.xError(anc, noise.pMeasFlip);
                record.measureCheck(anc, info.index);
                layer_end = std::max(layer_end, t);
            }
            t_now = layer_end;
        }
        // Everyone idles to the round boundary.
        for (std::uint32_t q = 0; q < cells; ++q)
            idle_to(q, t_now);
    }

    // Transversal data readout.
    record.close(emb.dataCell);
#ifndef NDEBUG
    lint::assertClean(circ, "latticeMemoryZ");
#endif
    return circ;
}

} // namespace uec
} // namespace hetarch
