#include "mapping/maps.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/logging.hpp"

namespace pointacc {

std::size_t
MapSet::size() const
{
    std::size_t n = 0;
    for (const auto &g : groups)
        n += g.size();
    return n;
}

void
MapSet::sortGroups()
{
    std::vector<std::pair<PointIndex, PointIndex>> pairs;
    for (auto &g : groups) {
        pairs.clear();
        for (std::size_t j = 0; j < g.size(); ++j)
            pairs.emplace_back(g.in[j], g.out[j]);
        std::sort(pairs.begin(), pairs.end());
        for (std::size_t j = 0; j < g.size(); ++j)
            std::tie(g.in[j], g.out[j]) = pairs[j];
    }
}

std::vector<Coord3>
kernelOffsets(int kernel_size, int tensor_stride)
{
    simAssert(kernel_size >= 1, "kernel size must be positive");
    simAssert(tensor_stride >= 1, "tensor stride must be positive");

    const int lo = kernel_size % 2 == 1 ? -(kernel_size - 1) / 2 : 0;
    const int hi = kernel_size % 2 == 1 ? (kernel_size - 1) / 2
                                        : kernel_size - 1;
    std::vector<Coord3> offsets;
    offsets.reserve(static_cast<std::size_t>(kernel_size) * kernel_size *
                    kernel_size);
    for (int dx = lo; dx <= hi; ++dx) {
        for (int dy = lo; dy <= hi; ++dy) {
            for (int dz = lo; dz <= hi; ++dz) {
                offsets.push_back(Coord3{dx, dy, dz} * tensor_stride);
            }
        }
    }
    return offsets;
}

} // namespace pointacc
