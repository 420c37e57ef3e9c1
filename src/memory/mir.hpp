/**
 * @file
 * Memory-tile Meta Info Registers (MIR) and the MIR Container.
 *
 * Section 4.2.1: the MMU manages on-chip buffers at the granularity of
 * a *tile* — the minimum memory for one computation tile of the tiled
 * matrix multiplication. Each tile's metadata (capacity, starting
 * offset, occupancy, tail pointer) sits in a MIR, and the MIR Container
 * is re-interpreted per workload:
 *
 *  - Tag Array  -> input buffers become a direct-mapped cache (sparse
 *                  computation, fetch-on-demand flow); modelled by
 *                  FeatureCache (memory/cache.hpp) as a flat tag array;
 *  - FIFO       -> double-buffered scratchpad (dense layers);
 *  - Stack      -> temporal layer fusion of consecutive FC layers
 *                  (Fig. 12), with the active layer's tile on top.
 */

#ifndef POINTACC_MEMORY_MIR_HPP
#define POINTACC_MEMORY_MIR_HPP

#include <cstdint>
#include <deque>

#include "core/logging.hpp"

namespace pointacc {

/** Meta information of one memory tile. */
struct Mir
{
    std::int32_t tileId = -1;     ///< tile identity (tag / layer id)
    std::uint32_t offset = 0;     ///< starting address in the buffer
    std::uint32_t capacity = 0;   ///< allocated bytes
    std::uint32_t occupancy = 0;  ///< valid bytes
    std::uint32_t tailPointer = 0;///< next write position
};

/** Operating mode of the MIR container. */
enum class MirMode
{
    Fifo,
    Stack,
};

/**
 * The MIR container: a small register file of `num_entries` MIRs with
 * mode-dependent placement/replacement, as in Fig. 11b / Fig. 12a.
 */
class MirContainer
{
  public:
    explicit MirContainer(std::size_t num_entries, MirMode mode);

    MirMode mode() const { return containerMode; }
    std::size_t capacity() const { return entries; }
    std::size_t size() const { return live.size(); }
    bool empty() const { return live.empty(); }
    bool full() const { return live.size() == entries; }

    /** Switch mode between layers; requires the container be drained. */
    void setMode(MirMode mode);

    // --- FIFO interface (scratchpad) ---------------------------------
    void pushBack(const Mir &mir);
    Mir popFront();

    // --- Stack interface (layer fusion) ------------------------------
    void push(const Mir &mir);
    Mir pop();
    Mir &top();
    const Mir &top() const;

    /** Direct access for inspection/tests. */
    const std::deque<Mir> &contents() const { return live; }

  private:
    std::size_t entries;
    MirMode containerMode;
    std::deque<Mir> live; ///< FIFO/Stack storage
};

} // namespace pointacc

#endif // POINTACC_MEMORY_MIR_HPP
