#include "runtime/autoscaler.hpp"

#include <stdexcept>
#include <string>

namespace pointacc {

AutoscalerConfig
resolveAutoscalerConfig(const AutoscalerConfig &cfg,
                        std::size_t fleet_size)
{
    AutoscalerConfig r = cfg;
    if (r.minInstances == 0)
        throw std::invalid_argument(
            "autoscaler floor (minInstances) must be >= 1");
    if (r.maxInstances == 0)
        r.maxInstances = static_cast<std::uint32_t>(fleet_size);
    if (r.maxInstances > fleet_size)
        throw std::invalid_argument(
            "autoscaler ceiling (" + std::to_string(r.maxInstances) +
            ") exceeds the configured fleet (" +
            std::to_string(fleet_size) + ")");
    if (r.maxInstances < r.minInstances)
        throw std::invalid_argument(
            "autoscaler ceiling must be >= its floor");
    if (r.initialInstances == 0)
        r.initialInstances = r.minInstances;
    if (r.initialInstances < r.minInstances ||
        r.initialInstances > r.maxInstances)
        throw std::invalid_argument(
            "autoscaler initialInstances must lie in [min, max]");
    if (r.evalIntervalCycles == 0)
        throw std::invalid_argument(
            "autoscaler evalIntervalCycles must be > 0");
    if (r.queueLowDepth >= r.queueHighDepth)
        throw std::invalid_argument(
            "autoscaler queueLowDepth must be < queueHighDepth");
    return r;
}

int
AutoscalerPolicy::decide(std::uint64_t now, std::uint64_t queue_depth,
                         std::uint64_t window_p99,
                         std::uint32_t provisioned)
{
    // The floor is an invariant, not a vote: a crash that powers the
    // fleet below minInstances is replaced at once, cooldown or not.
    // Without this a short queue would hold a crashed-out fleet at
    // zero forever. Fault-free runs never sit below the floor.
    if (provisioned < asCfg.minInstances) {
        lastActionAt = now;
        everActed = true;
        return +1;
    }
    // Cooldown: hold for cooldownCycles after any decision so one
    // burst cannot trigger an up/down/up oscillation.
    if (everActed && asCfg.cooldownCycles > 0 &&
        now < lastActionAt + asCfg.cooldownCycles)
        return 0;
    const bool pressure =
        queue_depth >= asCfg.queueHighDepth ||
        (asCfg.p99HighCycles > 0 && window_p99 > asCfg.p99HighCycles);
    int action = 0;
    if (pressure && provisioned < asCfg.maxInstances)
        action = +1;
    else if (!pressure && queue_depth <= asCfg.queueLowDepth &&
             provisioned > asCfg.minInstances)
        action = -1;
    if (action != 0) {
        lastActionAt = now;
        everActed = true;
    }
    return action;
}

} // namespace pointacc
