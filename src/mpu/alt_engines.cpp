#include "mpu/alt_engines.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/logging.hpp"

namespace pointacc {

HashKernelMapper::HashKernelMapper(std::size_t lanes, std::size_t num_banks,
                                   double load_factor)
    : numLanes(lanes), numBanks(num_banks == 0 ? lanes : num_banks),
      loadFactor(load_factor)
{
    simAssert(lanes >= 1, "hash mapper needs at least one lane");
    simAssert(load_factor > 0.0 && load_factor <= 1.0,
              "load factor must be in (0, 1]");
}

MapSet
HashKernelMapper::map(const PointCloud &input, const PointCloud &output,
                      const KernelMapConfig &kcfg,
                      HashEngineStats &stats) const
{
    const auto offsets = kernelOffsets(kcfg.kernelSize, kcfg.inStride);
    MapSet maps(static_cast<std::int32_t>(offsets.size()));

    // Functional part: identical to the software reference.
    std::unordered_map<Coord3, PointIndex, Coord3Hash> table;
    table.reserve(input.size() * 2);

    // --- Build phase -----------------------------------------------
    // `lanes` insertions per cycle; same-bank collisions serialize.
    {
        std::vector<std::uint32_t> bankOfLane(numLanes);
        std::size_t i = 0;
        while (i < input.size()) {
            const std::size_t batch =
                std::min(numLanes, input.size() - i);
            std::uint64_t maxPerBank = 1;
            std::unordered_map<std::uint32_t, std::uint64_t> perBank;
            for (std::size_t l = 0; l < batch; ++l) {
                const auto &c = input.coord(
                    static_cast<PointIndex>(i + l));
                const auto bank = static_cast<std::uint32_t>(
                    Coord3Hash{}(c) % numBanks);
                bankOfLane[l] = bank;
                maxPerBank = std::max(maxPerBank, ++perBank[bank]);
                table.emplace(c, static_cast<PointIndex>(i + l));
            }
            stats.cycles += maxPerBank;
            stats.bankConflicts += maxPerBank - 1;
            stats.insertions += batch;
            stats.sramWriteBytes += batch * 16; // key + index entry
            i += batch;
        }
    }

    // --- Probe phase ------------------------------------------------
    for (std::int32_t w = 0;
         w < static_cast<std::int32_t>(offsets.size()); ++w) {
        const Coord3 &delta = offsets[w];
        std::size_t q = 0;
        while (q < output.size()) {
            const std::size_t batch =
                std::min(numLanes, output.size() - q);
            std::uint64_t maxPerBank = 1;
            std::unordered_map<std::uint32_t, std::uint64_t> perBank;
            for (std::size_t l = 0; l < batch; ++l) {
                const Coord3 probe =
                    output.coord(static_cast<PointIndex>(q + l)) + delta;
                const auto bank = static_cast<std::uint32_t>(
                    Coord3Hash{}(probe) % numBanks);
                maxPerBank = std::max(maxPerBank, ++perBank[bank]);
                const auto it = table.find(probe);
                if (it != table.end())
                    maps.forWeight(w).push(it->second,
                                           static_cast<PointIndex>(q + l));
            }
            stats.cycles += maxPerBank;
            stats.bankConflicts += maxPerBank - 1;
            stats.probes += batch;
            stats.sramReadBytes += batch * 16;
            q += batch;
        }
    }
    return maps;
}

namespace {

/**
 * Area accounting (40 nm, normalized): one 64-bit comparator == 1 unit;
 * SRAM costs ~4 units per KB (bit-cell density vs. standard-cell
 * comparator logic); a radix-`lanes` crossbar port costs 0.05 units per
 * crosspoint.
 */
constexpr double kSramUnitsPerKB = 4.0;
constexpr double kCrossbarUnitsPerCrosspoint = 0.05;

} // namespace

double
HashKernelMapper::areaUnits(std::size_t max_cloud_points) const
{
    // On-chip table sized for the largest tile of the supported cloud
    // (16-byte entries: packed coordinate key + point index).
    const double slots =
        static_cast<double>(max_cloud_points) / loadFactor;
    const double sramKB = slots * 16.0 / 1024.0;
    const double sramArea = sramKB * kSramUnitsPerKB;
    // Parallel random read requires a lanes x banks crossbar.
    const double crossbarArea = static_cast<double>(numLanes) *
                                static_cast<double>(numBanks) *
                                kCrossbarUnitsPerCrosspoint;
    // Probe/insert lanes: hash function + match comparator each.
    const double laneArea = 2.0 * static_cast<double>(numLanes);
    return sramArea + crossbarArea + laneArea;
}

double
mergeSorterAreaUnits(std::size_t merger_width)
{
    // Bitonic sorter on N/2 + merge network on N: ~N log^2 N / 4 +
    // N/2 log N comparators, plus stream buffers of a few N elements
    // (13 bytes each) costed at the same SRAM density.
    const double n = static_cast<double>(merger_width);
    const double logn = std::log2(n);
    const double sorterComparators = (n / 2) * logn * (logn + 1) / 4.0;
    const double mergerComparators = (n / 2) * logn;
    const double bufferKB = 4.0 * n * 13.0 / 1024.0;
    return sorterComparators + mergerComparators +
           bufferKB * kSramUnitsPerKB;
}

ElementVec
quickSelectTopK(ElementVec data, std::size_t k, std::size_t lanes,
                QuickSelectStats &stats)
{
    simAssert(lanes >= 1, "quick-select needs at least one lane");
    if (k >= data.size()) {
        std::sort(data.begin(), data.end());
        return data;
    }

    // Iterative quick-select on the k-th smallest; each pass streams
    // the surviving candidates through `lanes` comparators against the
    // pivot and writes the kept side back to the buffer.
    ElementVec current = std::move(data);
    std::size_t need = k;
    ElementVec result;
    result.reserve(k);

    // Each pass is serially dependent: the partition must complete and
    // the lane-local counts aggregate (log lanes reduction) before the
    // engine can decide which side survives — a pipeline drain plus
    // control decision every pass.
    constexpr std::uint64_t kPassOverheadCycles = 32;

    while (!current.empty()) {
        ++stats.passes;
        stats.cycles += (current.size() + lanes - 1) / lanes +
                        kPassOverheadCycles;
        stats.comparisons += current.size();

        // Hardware pivot choice: middle element of the buffer (cheap,
        // deterministic). Median-of-three costs extra cycles.
        const std::size_t pivotIdx = current.size() / 2;
        const ComparatorStruct pivot = current[pivotIdx];
        ElementVec below, above;
        for (std::size_t i = 0; i < current.size(); ++i) {
            if (i == pivotIdx)
                continue;
            if (current[i] < pivot)
                below.push_back(current[i]);
            else
                above.push_back(current[i]);
        }
        // Write-back of the surviving partition (ping-pong buffers).
        if (below.size() >= need) {
            current = std::move(below);
        } else {
            result.insert(result.end(), below.begin(), below.end());
            result.push_back(pivot);
            need -= below.size() + 1;
            if (need == 0)
                break;
            current = std::move(above);
            if (need >= current.size()) {
                result.insert(result.end(), current.begin(),
                              current.end());
                need = 0;
                break;
            }
        }
    }

    // The selected k elements still need one final sort pass to emit
    // ranked neighbors (kNN consumers require rank order).
    std::sort(result.begin(), result.end());
    result.resize(std::min(result.size(), k));
    stats.cycles += (result.size() + lanes - 1) / lanes;
    return result;
}

} // namespace pointacc
