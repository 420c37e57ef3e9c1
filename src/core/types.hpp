/**
 * @file
 * Fundamental geometric types shared by every PointAcc subsystem.
 *
 * Point cloud coordinates are signed 32-bit integers: SparseConv-based
 * networks quantize points onto an integer voxel grid, and PointNet++-
 * based networks operate on metric coordinates which we store in fixed
 * point (see FixedPoint below) so that hardware models stay bit-exact
 * and deterministic across platforms.
 */

#ifndef POINTACC_CORE_TYPES_HPP
#define POINTACC_CORE_TYPES_HPP

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>

namespace pointacc {

/** Index of a point inside a point cloud. */
using PointIndex = std::int32_t;

/** True when v is a power of two (C++17 stand-in for std::has_single_bit). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Sentinel index meaning "no point". */
inline constexpr PointIndex kInvalidIndex = -1;

/** Number of fractional bits used when embedding metric coordinates. */
inline constexpr int kFixedPointFracBits = 8;

/** Convert a metric (float) coordinate to the fixed-point grid. */
inline std::int32_t
toFixed(float v)
{
    return static_cast<std::int32_t>(
        std::lround(static_cast<double>(v) * (1 << kFixedPointFracBits)));
}

/** Convert a fixed-point coordinate back to metric space. */
inline float
fromFixed(std::int32_t v)
{
    return static_cast<float>(v) / static_cast<float>(1 << kFixedPointFracBits);
}

/**
 * A 3-D integer coordinate.
 *
 * Ordering is lexicographic on (x, y, z); this is the order the Mapping
 * Unit's sorting networks use, so *every* algorithm in the repository
 * must agree with it.
 */
struct Coord3
{
    std::int32_t x = 0;
    std::int32_t y = 0;
    std::int32_t z = 0;

    constexpr Coord3() = default;
    constexpr Coord3(std::int32_t x_, std::int32_t y_, std::int32_t z_)
        : x(x_), y(y_), z(z_)
    {}

    friend constexpr bool
    operator==(const Coord3 &a, const Coord3 &b)
    {
        return a.x == b.x && a.y == b.y && a.z == b.z;
    }

    friend constexpr bool
    operator!=(const Coord3 &a, const Coord3 &b)
    {
        return !(a == b);
    }

    /** Lexicographic (x, y, z) order — the Mapping Unit's sort order. */
    friend constexpr bool
    operator<(const Coord3 &a, const Coord3 &b)
    {
        if (a.x != b.x) return a.x < b.x;
        if (a.y != b.y) return a.y < b.y;
        return a.z < b.z;
    }

    friend constexpr bool
    operator>(const Coord3 &a, const Coord3 &b)
    {
        return b < a;
    }

    friend constexpr bool
    operator<=(const Coord3 &a, const Coord3 &b)
    {
        return !(b < a);
    }

    friend constexpr bool
    operator>=(const Coord3 &a, const Coord3 &b)
    {
        return !(a < b);
    }

    constexpr Coord3
    operator+(const Coord3 &o) const
    {
        return {x + o.x, y + o.y, z + o.z};
    }

    constexpr Coord3
    operator-(const Coord3 &o) const
    {
        return {x - o.x, y - o.y, z - o.z};
    }

    constexpr Coord3
    operator*(std::int32_t s) const
    {
        return {x * s, y * s, z * s};
    }

    /** Squared Euclidean distance to another coordinate (64-bit safe). */
    constexpr std::int64_t
    distance2(const Coord3 &o) const
    {
        const std::int64_t dx = x - o.x;
        const std::int64_t dy = y - o.y;
        const std::int64_t dz = z - o.z;
        return dx * dx + dy * dy + dz * dz;
    }

    /** Chebyshev (L-inf) distance, used by kernel-neighborhood checks. */
    constexpr std::int32_t
    chebyshev(const Coord3 &o) const
    {
        const std::int32_t dx = std::abs(x - o.x);
        const std::int32_t dy = std::abs(y - o.y);
        const std::int32_t dz = std::abs(z - o.z);
        return std::max(dx, std::max(dy, dz));
    }
};

inline std::ostream &
operator<<(std::ostream &os, const Coord3 &c)
{
    return os << '(' << c.x << ',' << c.y << ',' << c.z << ')';
}

/**
 * 64-bit mixing hash for coordinates.
 *
 * Used by the (baseline) hash-table kernel-mapping implementation and by
 * containers in tests. The constants are the SplitMix64 finalizer.
 */
struct Coord3Hash
{
    std::size_t
    operator()(const Coord3 &c) const noexcept
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        const auto mix = [&](std::uint64_t v) {
            h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            h *= 0xbf58476d1ce4e5b9ULL;
            h ^= h >> 27;
        };
        mix(static_cast<std::uint32_t>(c.x));
        mix(static_cast<std::uint32_t>(c.y));
        mix(static_cast<std::uint32_t>(c.z));
        return static_cast<std::size_t>(h);
    }
};

/** Smallest and largest per-axis value packCoord represents exactly. */
inline constexpr std::int32_t kPackedCoordMin = -(1 << 20);
inline constexpr std::int32_t kPackedCoordMax = (1 << 20) - 1;

/**
 * True when the box [lo, hi], widened by `margin` on both sides of every
 * axis, lies inside [kPackedCoordMin, kPackedCoordMax]^3.
 *
 * This is the validity range of packed keys: a kernel map over a cloud
 * with bounding box [lo, hi] packs every c - delta with |delta| <=
 * margin per axis, and a value outside the range would alias another
 * coordinate instead of failing.
 */
constexpr bool
fitsPackedKey(const Coord3 &lo, const Coord3 &hi, std::int32_t margin)
{
    const std::int64_t m = margin;
    const auto fits = [m](std::int32_t a, std::int32_t b) {
        return a - m >= kPackedCoordMin && b + m <= kPackedCoordMax;
    };
    return fits(lo.x, hi.x) && fits(lo.y, hi.y) && fits(lo.z, hi.z);
}

/**
 * Pack a coordinate into a single 64-bit sort key (21 bits per axis,
 * offset binary so negative coordinates order correctly).
 *
 * The packed key preserves lexicographic (x, y, z) order, which lets the
 * hardware comparator models compare one 64-bit word per element exactly
 * as a real 63-bit comparator tree would. Only coordinates inside
 * [kPackedCoordMin, kPackedCoordMax] pack exactly (see fitsPackedKey);
 * others wrap into the 21-bit field. Inside the range the packing is
 * linear field by field, so packCoord(c - d) == packCoord(c) -
 * (packCoord(d) - packCoord({0, 0, 0})) whenever c, d and c - d all fit.
 */
inline std::uint64_t
packCoord(const Coord3 &c)
{
    constexpr std::uint64_t bias = 1ULL << 20;
    const std::uint64_t ux = (static_cast<std::uint64_t>(
        static_cast<std::int64_t>(c.x) + bias)) & 0x1fffff;
    const std::uint64_t uy = (static_cast<std::uint64_t>(
        static_cast<std::int64_t>(c.y) + bias)) & 0x1fffff;
    const std::uint64_t uz = (static_cast<std::uint64_t>(
        static_cast<std::int64_t>(c.z) + bias)) & 0x1fffff;
    return (ux << 42) | (uy << 21) | uz;
}

/** Inverse of packCoord. */
inline Coord3
unpackCoord(std::uint64_t key)
{
    constexpr std::int64_t bias = 1LL << 20;
    const auto ux = static_cast<std::int64_t>((key >> 42) & 0x1fffff);
    const auto uy = static_cast<std::int64_t>((key >> 21) & 0x1fffff);
    const auto uz = static_cast<std::int64_t>(key & 0x1fffff);
    return {static_cast<std::int32_t>(ux - bias),
            static_cast<std::int32_t>(uy - bias),
            static_cast<std::int32_t>(uz - bias)};
}

} // namespace pointacc

template <>
struct std::hash<pointacc::Coord3>
{
    std::size_t
    operator()(const pointacc::Coord3 &c) const noexcept
    {
        return pointacc::Coord3Hash{}(c);
    }
};

#endif // POINTACC_CORE_TYPES_HPP
