#include "sim/accelerator.hpp"

#include <algorithm>

#include "core/logging.hpp"
#include "memory/dram.hpp"
#include "memory/flows.hpp"
#include "memory/fusion.hpp"
#include "mxu/systolic.hpp"
#include "sim/mapping_cost.hpp"

namespace pointacc {

namespace {

/** Buffered description of one dense layer inside a fusion chain. */
struct PendingDense
{
    std::string name;
    std::uint64_t rows = 0;
    std::uint32_t cin = 0;
    std::uint32_t cout = 0;
    std::uint64_t macs = 0;
};

/** The fetch-on-demand cache walk of the last priced sparse layer,
 *  keyed by everything the walk reads that can change within a run.
 *  The rest of the cache geometry and the tiles are fixed per run. */
struct PricedWalk
{
    std::uint64_t mapsId = 0; ///< LayerWork::mapsId; 0 = none yet
    std::uint32_t inChannels = 0;
    std::uint32_t numOutputs = 0;
    std::uint32_t blockPoints = 0; ///< RunOptions::cacheBlockPoints
    CacheStats cache;
};

/** Mutable simulation context while visiting layers. */
struct SimContext
{
    const AcceleratorConfig *cfg = nullptr;
    const RunOptions *options = nullptr;
    RunResult *result = nullptr;
    MatrixUnit mxu;
    std::vector<PendingDense> chain;
    std::int32_t chainId = -1;
    PricedWalk lastWalk;

    explicit SimContext(const AcceleratorConfig &c) : mxu(c.mxu) {}
};

/** Convert DRAM bytes to transfer cycles on the configured memory. */
std::uint64_t
dramCyclesFor(const AcceleratorConfig &cfg, std::uint64_t read_bytes,
              std::uint64_t write_bytes)
{
    DramModel dram(cfg.dram);
    dram.readSequential(read_bytes);
    dram.writeSequential(write_bytes);
    return dram.cycles(cfg.freqGHz);
}

double
dramEnergyFor(const AcceleratorConfig &cfg, std::uint64_t bytes)
{
    return static_cast<double>(bytes) * 8.0 * cfg.dram.energyPerBitPJ;
}

void
finishLayer(SimContext &ctx, LayerStats &&ls)
{
    ls.totalCycles = ls.mappingCycles +
                     std::max(ls.computeCycles, ls.dramCycles);
    auto &r = *ctx.result;
    r.totalCycles += ls.totalCycles;
    r.mappingCycles += ls.mappingCycles;
    r.computeCycles += ls.computeCycles;
    if (ls.dramCycles > ls.computeCycles)
        r.exposedDramCycles += ls.dramCycles - ls.computeCycles;
    r.dramReadBytes += ls.dramReadBytes;
    r.dramWriteBytes += ls.dramWriteBytes;
    r.totalMacs += ls.macs;
    r.energy += ls.energy;
    r.layers.push_back(std::move(ls));
}

/** Flush a buffered dense chain through the fusion planner. */
void
flushChain(SimContext &ctx)
{
    if (ctx.chain.empty())
        return;
    const auto &cfg = *ctx.cfg;
    const auto &opt = *ctx.options;

    // Split the chain wherever the row count changes (fusion tiles the
    // point dimension, so fused layers must share it).
    std::size_t start = 0;
    while (start < ctx.chain.size()) {
        std::size_t end = start + 1;
        while (end < ctx.chain.size() &&
               ctx.chain[end].rows == ctx.chain[start].rows) {
            ++end;
        }
        const std::uint64_t rows = ctx.chain[start].rows;

        std::vector<std::uint32_t> channels;
        channels.push_back(ctx.chain[start].cin);
        for (std::size_t i = start; i < end; ++i)
            channels.push_back(ctx.chain[i].cout);

        FusionPlan plan;
        if (opt.useFusion) {
            plan = planFusion(channels,
                              static_cast<std::uint32_t>(std::max<
                                  std::uint64_t>(rows, 1)),
                              cfg.fusionBufferBytes());
        } else {
            for (std::size_t l = 0; l + 1 < channels.size(); ++l)
                plan.groups.push_back({l, 1, 1024});
        }

        // One LayerStats per fusion group (the group is the schedule
        // unit: intermediates stay on chip inside it).
        for (const auto &g : plan.groups) {
            LayerStats ls;
            ls.isDense = true;
            ls.name = ctx.chain[start + g.firstLayer].name;
            if (g.numLayers > 1)
                ls.name += " (+" + std::to_string(g.numLayers - 1) +
                           " fused)";

            MxuStats mxuStats;
            std::uint64_t weightBytes = 0;
            for (std::size_t l = 0; l < g.numLayers; ++l) {
                const auto &pd = ctx.chain[start + g.firstLayer + l];
                mxuStats += ctx.mxu.denseMatmul(pd.rows, pd.cin, pd.cout);
                ls.macs += pd.macs;
                weightBytes += static_cast<std::uint64_t>(pd.cin) *
                               pd.cout * 2;
            }
            ls.computeCycles = mxuStats.cycles;

            const std::uint32_t cinFirst = channels[g.firstLayer];
            const std::uint32_t coutLast =
                channels[g.firstLayer + g.numLayers];
            ls.dramReadBytes = rows * 2ULL * cinFirst + weightBytes;
            ls.dramWriteBytes = rows * 2ULL * coutLast;
            ls.dramCycles = dramCyclesFor(cfg, ls.dramReadBytes,
                                          ls.dramWriteBytes);

            ls.energy.computePJ =
                static_cast<double>(ls.macs) * cfg.energy.macPJ;
            ls.energy.sramPJ =
                static_cast<double>(mxuStats.inputSramBytes +
                                    mxuStats.weightSramBytes +
                                    mxuStats.outputSramBytes) *
                cfg.energy.sramSmallPJPerByte;
            ls.energy.dramPJ = dramEnergyFor(
                cfg, ls.dramReadBytes + ls.dramWriteBytes);
            finishLayer(ctx, std::move(ls));
        }
        start = end;
    }
    ctx.chain.clear();
}

/**
 * The fetch-on-demand cache walk of sparse layer `w`. A layer that
 * streams the same maps at the same input width into the same outputs
 * as the previous sparse layer (consecutive submanifold convs of a
 * stage, for example) walks the cache identically, so it reuses that
 * walk; only outChannels, which the walk never reads, may differ.
 */
const CacheStats &
cacheWalk(SimContext &ctx, const LayerWork &w, const SparseLayerShape &shape)
{
    const auto &cfg = *ctx.cfg;
    const std::uint32_t block = ctx.options->cacheBlockPoints;
    PricedWalk &last = ctx.lastWalk;
    if (w.mapsId != 0 && w.mapsId == last.mapsId &&
        shape.inChannels == last.inChannels &&
        shape.numOutputs == last.numOutputs && block == last.blockPoints)
        return last.cache;

    CacheStats walk;
    if (block == 0) {
        // Compiler pass: pick the block size that minimizes DRAM fill
        // traffic for this layer's maps.
        std::uint64_t best = ~0ULL;
        for (std::uint32_t candidate : {4u, 16u, 64u}) {
            const CacheStats trial = fetchOnDemandWalk(
                *w.maps, shape, cfg.cacheConfig(candidate), cfg.mxu.rows);
            if (trial.missBytes < best) {
                best = trial.missBytes;
                walk = trial;
            }
        }
    } else {
        walk = fetchOnDemandWalk(*w.maps, shape, cfg.cacheConfig(block),
                                 cfg.mxu.rows);
    }
    last = {w.mapsId, shape.inChannels, shape.numOutputs, block, walk};
    return last.cache;
}

void
simulateSparse(SimContext &ctx, const LayerWork &w)
{
    const auto &cfg = *ctx.cfg;
    const auto &opt = *ctx.options;

    LayerStats ls;
    ls.name = w.name;
    ls.isDense = false;
    ls.macs = w.macs;
    ls.maps = w.maps ? w.maps->size() : 0;

    // --- Mapping Unit ------------------------------------------------
    MappingCost mapCost;
    for (const auto &op : w.mappingOps)
        mapCost += mappingOpCost(op, cfg.mpu);
    ls.mappingCycles = mapCost.cycles;

    // --- Memory Management Unit --------------------------------------
    SparseLayerShape shape;
    shape.numInputs = static_cast<std::uint32_t>(w.numIn);
    shape.numOutputs = static_cast<std::uint32_t>(w.numOut);
    shape.inChannels = w.cin;
    shape.outChannels = w.cout;

    FlowTraffic traffic;
    if (w.maps) {
        if (opt.useCache) {
            const FetchOnDemandResult fod = fetchOnDemandFromWalk(
                cacheWalk(ctx, w, shape), *w.maps, shape);
            traffic = fod.traffic;
            ls.cacheMissRate = fod.cache.missRate();
        } else {
            traffic = gatherMatMulScatterTraffic(*w.maps, shape);
            ls.cacheMissRate = 1.0;
        }
    }
    ls.dramReadBytes = traffic.inputReadBytes + traffic.scratchReadBytes +
                       traffic.weightReadBytes;
    ls.dramWriteBytes = traffic.outputWriteBytes +
                        traffic.scratchWriteBytes;
    // Map FIFO spill: maps stream to/from DRAM once when they exceed
    // the sorter buffer (12 bytes per map).
    const std::uint64_t mapBytes = ls.maps * 12ULL;
    if (mapBytes > cfg.sorterBufferKB * 1024ULL) {
        ls.dramReadBytes += mapBytes;
        ls.dramWriteBytes += mapBytes;
    }
    ls.dramCycles = dramCyclesFor(cfg, ls.dramReadBytes,
                                  ls.dramWriteBytes);

    // --- Matrix Unit --------------------------------------------------
    MxuStats mxuStats;
    if (w.maps) {
        mxuStats = ctx.mxu.sparseConv(*w.maps, w.cin, w.cout);
    } else {
        mxuStats = ctx.mxu.denseMatmul(w.numOut, w.cin, w.cout);
    }
    ls.computeCycles = mxuStats.cycles;

    // --- Energy --------------------------------------------------------
    ls.energy.computePJ =
        static_cast<double>(ls.macs) * cfg.energy.macPJ +
        static_cast<double>(mapCost.comparisons) *
            cfg.energy.comparatorPJ +
        static_cast<double>(mapCost.distanceOps) * cfg.energy.distancePJ;
    ls.energy.sramPJ =
        static_cast<double>(mxuStats.inputSramBytes +
                            mxuStats.weightSramBytes +
                            mxuStats.outputSramBytes) *
            cfg.energy.sramSmallPJPerByte +
        static_cast<double>(mapCost.sramBytes) *
            cfg.energy.sramSmallPJPerByte;
    ls.energy.dramPJ =
        dramEnergyFor(cfg, ls.dramReadBytes + ls.dramWriteBytes);

    finishLayer(ctx, std::move(ls));
}

} // namespace

Accelerator::Accelerator(const AcceleratorConfig &cfg_) : cfg(cfg_) {}

RunResult
Accelerator::run(const Network &net, const PointCloud &input,
                 const RunOptions &options) const
{
    RunResult result;
    result.network = net.notation;
    result.accelerator = cfg.name;
    result.freqGHz = cfg.freqGHz;

    SimContext ctx(cfg);
    ctx.cfg = &cfg;
    ctx.options = &options;
    ctx.result = &result;

    executeNetwork(net, input, [&](const LayerWork &w) {
        if (w.isDense) {
            if (w.denseChainId != ctx.chainId)
                flushChain(ctx);
            ctx.chainId = w.denseChainId;
            ctx.chain.push_back(
                {w.name, w.numIn, w.cin, w.cout, w.macs});
            return;
        }
        flushChain(ctx);
        ctx.chainId = -1;
        simulateSparse(ctx, w);
    });
    flushChain(ctx);

    // Static power (leakage, clock tree, DRAM PHY) integrates over the
    // whole run, attributed by area/structure: ~70% logic, ~5% SRAM
    // periphery, ~25% DRAM interface PHY.
    const double seconds =
        static_cast<double>(result.totalCycles) / (cfg.freqGHz * 1e9);
    const double staticPJ = cfg.energy.staticPowerW * seconds * 1e12;
    result.energy.computePJ += 0.70 * staticPJ;
    result.energy.sramPJ += 0.05 * staticPJ;
    result.energy.dramPJ += 0.25 * staticPJ;
    return result;
}

} // namespace pointacc
