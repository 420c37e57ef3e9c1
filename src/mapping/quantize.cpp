#include "mapping/quantize.hpp"

#include "core/logging.hpp"

namespace pointacc {

namespace {

void
checkStrides(const PointCloud &input, std::int32_t out_stride)
{
    simAssert(out_stride >= 1, "output stride must be positive");
    simAssert(isPowerOfTwo(static_cast<std::uint32_t>(out_stride)),
              "tensor stride must be a power of two");
    simAssert(out_stride % input.tensorStride() == 0,
              "output stride must be a multiple of the input stride");
}

/**
 * Quantize `input` to `out_stride` (checked by checkStrides), sort the
 * quantized coordinates once and keep the first of each run of equal
 * ones. Calls `onPoint(fine index, coarse index)` for every input point
 * in sorted order, which is ascending coarse index.
 */
template <typename OnPoint>
PointCloud
quantizeSorted(const PointCloud &input, std::int32_t out_stride,
               OnPoint &&onPoint)
{
    std::vector<Coord3> quantized;
    quantized.reserve(input.size());
    for (const auto &p : input.coordinates())
        quantized.push_back(quantizeCoord(p, out_stride));
    const std::vector<std::uint32_t> order = coordSortOrder(quantized);

    std::size_t cells = 0;
    for (std::size_t j = 0; j < order.size(); ++j)
        cells += j == 0 || quantized[order[j]] != quantized[order[j - 1]];
    std::vector<Coord3> coarse;
    coarse.reserve(cells);
    for (const std::uint32_t i : order) {
        if (coarse.empty() || coarse.back() != quantized[i])
            coarse.push_back(quantized[i]);
        onPoint(static_cast<PointIndex>(i),
                static_cast<PointIndex>(coarse.size() - 1));
    }

    PointCloud out(std::move(coarse));
    out.setTensorStride(out_stride);
    return out;
}

} // namespace

PointCloud
quantizeDownsample(const PointCloud &input, std::int32_t out_stride)
{
    checkStrides(input, out_stride);
    return quantizeSorted(input, out_stride, [](PointIndex, PointIndex) {});
}

Downsample
downsampleWithMaps(const PointCloud &input, std::int32_t out_stride)
{
    checkStrides(input, out_stride);
    const std::int32_t inStride = input.tensorStride();
    const std::int32_t m = out_stride / inStride;
    int strideBits = 0;
    while ((std::int32_t{1} << strideBits) < inStride)
        ++strideBits;

    // A point's offset from its coarse point is its low bits, p &
    // (out_stride - 1) per axis. In input strides that is the kernel
    // offset (dx, dy, dz) in {0..m-1}^3, flattened in kernelOffsets'
    // order; -1 for a point off the input stride's grid, which no
    // offset reaches.
    const auto weightOf = [&](const Coord3 &p) {
        std::int32_t w = 0;
        for (const std::int32_t a : {p.x, p.y, p.z}) {
            const std::int32_t d = a & (out_stride - 1);
            if ((d & (inStride - 1)) != 0)
                return -1;
            w = w * m + (d >> strideBits);
        }
        return w;
    };

    Downsample down;
    down.maps = MapSet(m * m * m);
    std::vector<std::size_t> sizes(static_cast<std::size_t>(m * m * m), 0);
    for (const auto &p : input.coordinates())
        if (const std::int32_t w = weightOf(p); w >= 0)
            ++sizes[static_cast<std::size_t>(w)];
    for (std::int32_t w = 0; w < m * m * m; ++w)
        down.maps.forWeight(w).reserve(sizes[static_cast<std::size_t>(w)]);

    down.cloud = quantizeSorted(
        input, out_stride, [&](PointIndex fine, PointIndex coarse) {
            if (const std::int32_t w = weightOf(input.coord(fine)); w >= 0)
                down.maps.forWeight(w).push(fine, coarse);
        });
    return down;
}

} // namespace pointacc
