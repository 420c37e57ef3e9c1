/**
 * @file
 * Farthest point sampling (FPS): output cloud construction for
 * PointNet++-based convolutions (Section 2.1.1).
 *
 * Output points are chosen one at a time; each iteration picks the
 * input point with the largest distance to the already-selected set.
 * The Mapping Unit does this as the O(n * m) incremental-minimum loop
 * (distance update forwarded from stage CD to FS, running max in stage
 * ST), modelled in MappingUnit::farthestPointSampling. This functional
 * version selects exactly the same sequence, ties included, but prunes:
 * it partitions the cloud into the blocks of a spatial grid, and a new
 * sample skips every block whose bounding box lies at least as far as
 * that block's largest current distance, since none of its points can
 * change. tests/test_mapping.cpp checks it against the plain loop.
 */

#ifndef POINTACC_MAPPING_FPS_HPP
#define POINTACC_MAPPING_FPS_HPP

#include <vector>

#include "core/point_cloud.hpp"

namespace pointacc {

/**
 * Select `num_samples` points by farthest point sampling.
 *
 * @param cloud        input cloud, spanning at most 2^30 per axis so
 *                     that squared distances fit in int64 (asserted)
 * @param num_samples  number of points to select (clamped to cloud size)
 * @param first        index of the seed point (paper picks the first)
 * @return             indices into `cloud`, in selection order
 */
std::vector<PointIndex> farthestPointSampling(const PointCloud &cloud,
                                              std::size_t num_samples,
                                              PointIndex first = 0);

/** Random sampling baseline (used by RandLA-style nets; deterministic). */
std::vector<PointIndex> randomSampling(const PointCloud &cloud,
                                       std::size_t num_samples,
                                       std::uint64_t seed);

/** Materialize a subset of `cloud` given selected indices. */
PointCloud gatherPoints(const PointCloud &cloud,
                        const std::vector<PointIndex> &indices);

} // namespace pointacc

#endif // POINTACC_MAPPING_FPS_HPP
