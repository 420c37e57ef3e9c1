#include "mapping/kernel_map.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

#include "core/logging.hpp"

namespace pointacc {

MapSet
hashKernelMap(const PointCloud &input, const PointCloud &output,
              const KernelMapConfig &cfg)
{
    const auto offsets = kernelOffsets(cfg.kernelSize, cfg.inStride);
    MapSet maps(static_cast<std::int32_t>(offsets.size()));

    std::unordered_map<Coord3, PointIndex, Coord3Hash> table;
    table.reserve(input.size() * 2);
    for (std::size_t i = 0; i < input.size(); ++i)
        table.emplace(input.coord(static_cast<PointIndex>(i)),
                      static_cast<PointIndex>(i));

    for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
        const Coord3 &delta = offsets[w];
        MapGroup &g = maps.forWeight(w);
        // Matches per offset are bounded by the smaller cloud; reserving
        // a slice of that up front absorbs the early doubling
        // reallocations without committing the full worst case.
        g.reserve(std::min(input.size(), output.size()) / 8 + 8);
        for (std::size_t q = 0; q < output.size(); ++q) {
            const Coord3 probe =
                output.coord(static_cast<PointIndex>(q)) + delta;
            const auto it = table.find(probe);
            if (it != table.end())
                g.push(it->second, static_cast<PointIndex>(q));
        }
    }
    return maps;
}

namespace {

/** Packed keys of a cloud's coordinates, in point order. */
std::vector<std::uint64_t>
packedKeys(const PointCloud &cloud)
{
    std::vector<std::uint64_t> keys(cloud.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = packCoord(cloud.coord(static_cast<PointIndex>(i)));
    return keys;
}

} // namespace

bool
kernelMapKeysFit(const PointCloud &input, const PointCloud &output,
                 const KernelMapConfig &cfg)
{
    std::int32_t reach = 0;
    for (const auto &d : kernelOffsets(cfg.kernelSize, cfg.inStride))
        reach = std::max({reach, std::abs(d.x), std::abs(d.y),
                          std::abs(d.z)});
    const BoundingBox in = input.boundingBox();
    const BoundingBox out = output.boundingBox();
    return fitsPackedKey(in.lo, in.hi, reach) &&
           fitsPackedKey(out.lo, out.hi, 0);
}

MapSet
sortKernelMap(const PointCloud &input, const PointCloud &output,
              const KernelMapConfig &cfg)
{
    simAssert(kernelMapKeysFit(input, output, cfg),
              "sortKernelMap: coordinates outside the packed-key range");
    // Inside the packed range key order is coordinate order.
    const std::vector<std::uint64_t> inKeys = packedKeys(input);
    const std::vector<std::uint64_t> outKeys = packedKeys(output);
    simAssert(std::is_sorted(inKeys.begin(), inKeys.end()),
              "sortKernelMap requires sorted input");
    simAssert(std::is_sorted(outKeys.begin(), outKeys.end()),
              "sortKernelMap requires sorted output");

    const auto offsets = kernelOffsets(cfg.kernelSize, cfg.inStride);
    const std::int32_t volume = static_cast<std::int32_t>(offsets.size());
    MapSet maps(volume);

    // Shifting by a constant preserves lexicographic order, so both key
    // streams stay sorted for every offset and no re-sort is needed in
    // the functional model (the hardware model pays the merge cycles).
    // Inside the packed range the shift is one subtraction per key.
    const std::uint64_t origin = packCoord({0, 0, 0});

    // Submanifold conv (odd kernel, same coordinates on both sides):
    // only the offsets before the centre need a merge;
    // mirrorSubmanifoldMaps derives the centre and the rest.
    const bool mirrored = cfg.kernelSize % 2 == 1 && inKeys == outKeys;
    const std::int32_t merged = mirrored ? volume / 2 : volume;

    // Matches of one offset; one spare slot for the unconditional
    // store of the branch-free merge below.
    const std::size_t cap = std::min(inKeys.size(), outKeys.size()) + 1;
    std::vector<PointIndex> ins(cap), outs(cap);
    const std::size_t ni = inKeys.size(), nq = outKeys.size();

    for (std::int32_t w = 0; w < merged; ++w) {
        const std::uint64_t shift = packCoord(offsets[w]) - origin;
        // Walk the shifted input and the output together (the software
        // analogue of the hardware mergesort + intersection detection,
        // Fig. 9): equal keys emit a map and advance both sides,
        // otherwise the smaller side advances. Matches come out in
        // ascending input and output index.
        std::size_t i = 0, q = 0, n = 0;
        while (i < ni && q < nq) {
            const std::uint64_t a = inKeys[i] - shift;
            const std::uint64_t b = outKeys[q];
            ins[n] = static_cast<PointIndex>(i);
            outs[n] = static_cast<PointIndex>(q);
            n += a == b;
            i += a <= b;
            q += a >= b;
        }
        MapGroup &g = maps.forWeight(w);
        g.in.assign(ins.begin(), ins.begin() + n);
        g.out.assign(outs.begin(), outs.begin() + n);
    }
    if (mirrored)
        mirrorSubmanifoldMaps(maps, ni);
    return maps;
}

void
mirrorSubmanifoldMaps(MapSet &maps, std::size_t num_points)
{
    const std::int32_t volume = maps.numWeights();
    simAssert(volume % 2 == 1,
              "mirrorSubmanifoldMaps: kernel volume must be odd");
    for (std::int32_t w = 0; w < volume / 2; ++w) {
        MapGroup &mirror = maps.forWeight(volume - 1 - w);
        simAssert(mirror.empty(),
                  "mirrorSubmanifoldMaps: mirrored group already filled");
        const MapGroup &g = maps.forWeight(w);
        mirror = {g.out, g.in};
    }
    MapGroup &centre = maps.forWeight(volume / 2);
    simAssert(centre.empty(),
              "mirrorSubmanifoldMaps: centre group already filled");
    centre.in.resize(num_points);
    std::iota(centre.in.begin(), centre.in.end(), PointIndex{0});
    centre.out = centre.in;
}

MapSet
transposeMaps(const MapSet &maps, int kernel_size)
{
    const std::int32_t volume = maps.numWeights();
    MapSet out(volume);
    // Odd cubic kernels are centro-symmetric: weight w's offset delta
    // maps to volume-1-w's offset -delta. For even kernels the offsets
    // {0..k-1}^3 have no mirror inside the set, so the transposed layer
    // keeps the same weight index (the upsampling layer owns its own
    // weights anyway; only grouping matters for the simulator).
    const bool odd = kernel_size % 2 == 1;
    for (std::int32_t w = 0; w < volume; ++w) {
        const MapGroup &g = maps.forWeight(w);
        out.forWeight(odd ? volume - 1 - w : w) = {g.out, g.in};
    }
    return out;
}

} // namespace pointacc
