#include "core/point_cloud.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/logging.hpp"

namespace pointacc {

namespace {

/** Bounding box of `coords`; zero box when empty. */
BoundingBox
boxOf(const std::vector<Coord3> &coords)
{
    BoundingBox box;
    if (coords.empty())
        return box;
    box.lo = box.hi = coords.front();
    for (const auto &c : coords) {
        box.lo.x = std::min(box.lo.x, c.x);
        box.lo.y = std::min(box.lo.y, c.y);
        box.lo.z = std::min(box.lo.z, c.z);
        box.hi.x = std::max(box.hi.x, c.x);
        box.hi.y = std::max(box.hi.y, c.y);
        box.hi.z = std::max(box.hi.z, c.z);
    }
    return box;
}

/** Bits needed to hold every offset in [0, hi - lo]. */
int
offsetBits(std::int32_t lo, std::int32_t hi)
{
    std::uint32_t span = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(hi) - lo);
    int bits = 0;
    for (; span != 0; span >>= 1)
        ++bits;
    return bits;
}

} // namespace

BoundingBox
PointCloud::boundingBox() const
{
    return boxOf(coords);
}

double
PointCloud::density() const
{
    if (coords.empty())
        return 0.0;
    const auto box = boundingBox();
    return static_cast<double>(coords.size()) /
           static_cast<double>(box.volume());
}

std::vector<std::uint32_t>
coordSortOrder(const std::vector<Coord3> &coords)
{
    const std::size_t n = coords.size();
    simAssert(n <= UINT32_MAX, "coordSortOrder indexes points with 32 bits");
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    if (n < 2)
        return order;

    // Key: the offsets from the bounding box's low corner, x | y | z
    // from the most significant bit down, each as wide as its axis'
    // span. Offsets are non-negative, so keys order like Coord3's
    // lexicographic operator<. Keys reach 96 bits; they are sorted one
    // 64-bit word at a time, low word first.
    const BoundingBox box = boxOf(coords);
    const int wy = offsetBits(box.lo.y, box.hi.y);
    const int wz = offsetBits(box.lo.z, box.hi.z);
    const int totalBits = offsetBits(box.lo.x, box.hi.x) + wy + wz;
    const auto offset = [](std::int32_t v, std::int32_t lo) {
        return static_cast<unsigned __int128>(static_cast<std::uint32_t>(
            static_cast<std::int64_t>(v) - lo));
    };

    // Stable LSD radix sort of the point order, one byte per pass.
    // Points with equal keys keep their input order. A byte that every
    // key shares cannot change the order, so its pass is skipped.
    std::vector<std::uint64_t> keyWord(n);
    std::vector<std::uint32_t> next(n);
    for (int word = 0; 64 * word < totalBits; ++word) {
        const int bytes = (std::min(totalBits - 64 * word, 64) + 7) / 8;
        std::array<std::array<std::uint32_t, 256>, 8> counts{};
        for (std::size_t i = 0; i < n; ++i) {
            const Coord3 &c = coords[i];
            const unsigned __int128 key =
                (offset(c.x, box.lo.x) << (wy + wz)) |
                (offset(c.y, box.lo.y) << wz) | offset(c.z, box.lo.z);
            keyWord[i] = static_cast<std::uint64_t>(key >> (64 * word));
            for (int b = 0; b < bytes; ++b)
                ++counts[b][(keyWord[i] >> (8 * b)) & 0xff];
        }
        for (int b = 0; b < bytes; ++b) {
            auto &count = counts[b];
            if (std::find(count.begin(), count.end(), n) != count.end())
                continue;
            std::uint32_t start = 0;
            for (auto &c : count)
                start += std::exchange(c, start);
            for (const std::uint32_t i : order)
                next[count[(keyWord[i] >> (8 * b)) & 0xff]++] = i;
            order.swap(next);
        }
    }
    return order;
}

void
PointCloud::sortByCoord()
{
    const std::size_t n = coords.size();
    if (n < 2)
        return;
    const std::vector<std::uint32_t> order = coordSortOrder(coords);
    std::vector<Coord3> newCoords(n);
    std::vector<float> newFeatures(features.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t from = order[i];
        newCoords[i] = coords[from];
        if (numChannels > 0) {
            std::copy_n(features.begin() +
                            static_cast<std::ptrdiff_t>(from) * numChannels,
                        numChannels,
                        newFeatures.begin() +
                            static_cast<std::ptrdiff_t>(i) * numChannels);
        }
    }
    coords = std::move(newCoords);
    features = std::move(newFeatures);
}

bool
PointCloud::isSorted() const
{
    return std::is_sorted(coords.begin(), coords.end());
}

std::size_t
PointCloud::dedupSorted()
{
    simAssert(isSorted(), "dedupSorted requires a sorted cloud");
    if (coords.empty())
        return 0;

    std::size_t write = 0;
    for (std::size_t read = 0; read < coords.size(); ++read) {
        if (read > 0 && coords[read] == coords[write - 1])
            continue;
        coords[write] = coords[read];
        if (numChannels > 0 && write != read) {
            std::copy_n(features.begin() +
                            static_cast<std::ptrdiff_t>(read) * numChannels,
                        numChannels,
                        features.begin() +
                            static_cast<std::ptrdiff_t>(write) * numChannels);
        }
        ++write;
    }
    const std::size_t removed = coords.size() - write;
    coords.resize(write);
    features.resize(write * static_cast<std::size_t>(numChannels));
    return removed;
}

} // namespace pointacc
