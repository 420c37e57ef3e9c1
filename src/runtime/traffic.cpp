#include "runtime/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pointacc {

double
TrafficProgram::peakRequestsPerMCycle() const
{
    double peak = base.requestsPerMCycle;
    for (const auto &ph : phases)
        peak = std::max(peak, ph.requestsPerMCycle);
    return peak;
}

void
validateTrafficProgram(const TrafficProgram &program)
{
    validateWorkloadSpec(program.base);
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto &ph : program.phases) {
        if (!std::isfinite(ph.requestsPerMCycle) ||
            ph.requestsPerMCycle <= 0.0)
            throw std::invalid_argument(
                "traffic phase rate must be positive and finite");
        if (!first && ph.startCycle <= prev)
            throw std::invalid_argument(
                "traffic phases must have strictly increasing "
                "startCycle");
        prev = ph.startCycle;
        first = false;
    }
}

TrafficProgram
flashCrowdProgram(const WorkloadSpec &base, double multiplier,
                  double start_frac, double duration_frac)
{
    if (!std::isfinite(multiplier) || multiplier <= 0.0)
        throw std::invalid_argument(
            "flash-crowd multiplier must be positive and finite");
    if (!(start_frac > 0.0 && start_frac < 1.0) ||
        !(duration_frac > 0.0 && start_frac + duration_frac <= 1.0))
        throw std::invalid_argument(
            "flash-crowd window must lie strictly inside the horizon");
    TrafficProgram program;
    program.name = "flash_crowd";
    program.base = base;
    const double horizon = static_cast<double>(base.horizonCycles);
    const auto start =
        static_cast<std::uint64_t>(horizon * start_frac);
    const auto end = static_cast<std::uint64_t>(
        horizon * (start_frac + duration_frac));
    program.phases.push_back(
        {start, base.requestsPerMCycle * multiplier});
    if (end > start && end < base.horizonCycles)
        program.phases.push_back({end, base.requestsPerMCycle});
    validateTrafficProgram(program);
    return program;
}

TrafficProgram
diurnalProgram(const WorkloadSpec &base, std::uint64_t period_cycles,
               double peak_factor, std::uint32_t steps_per_period)
{
    if (!std::isfinite(peak_factor) || peak_factor < 1.0)
        throw std::invalid_argument("diurnal peak factor must be >= 1");
    if (period_cycles == 0)
        throw std::invalid_argument("diurnal period must be nonzero");
    if (steps_per_period < 2)
        throw std::invalid_argument(
            "diurnal profile needs at least 2 steps per period");
    TrafficProgram program;
    program.name = "diurnal";
    program.base = base;
    const double pi = 3.14159265358979323846;
    // Raised cosine from trough (step 0) to peak (mid-period) and
    // back; step 0 of every period is the base rate itself, so only
    // steps 1.. need phase entries and boundaries stay strictly
    // increasing.
    for (std::uint64_t start = 0; start < base.horizonCycles;
         start += period_cycles) {
        for (std::uint32_t k = 0; k < steps_per_period; ++k) {
            const std::uint64_t at =
                start + period_cycles * k / steps_per_period;
            if (at >= base.horizonCycles)
                break;
            if (start == 0 && k == 0)
                continue; // base rate already covers [0, first phase)
            const double shape =
                0.5 * (1.0 - std::cos(2.0 * pi * k / steps_per_period));
            const double mult = 1.0 + (peak_factor - 1.0) * shape;
            program.phases.push_back(
                {at, base.requestsPerMCycle * mult});
        }
    }
    validateTrafficProgram(program);
    return program;
}

namespace {

const TrafficProgram &
validated(const TrafficProgram &program)
{
    validateTrafficProgram(program);
    return program;
}

} // namespace

TrafficStream::TrafficStream(const TrafficProgram &program)
    : WorkloadStream(validated(program).base, program.phases,
                     program.churn.intervalCycles)
{
    shape.present = true;
    shape.program = program.name;
    shape.segments = segmentCount();
    shape.basePerMCycle = program.base.requestsPerMCycle;
    shape.peakPerMCycle = program.peakRequestsPerMCycle();
    shape.churnIntervalCycles = program.churn.intervalCycles;
}

TrafficTelemetry
TrafficStream::telemetry() const
{
    TrafficTelemetry t = shape;
    t.churnEvents = churnEventCount();
    return t;
}

std::vector<Request>
materialize(const TrafficProgram &program, TrafficTelemetry *telemetry)
{
    std::vector<Request> out;
    TrafficStream s(program);
    while (s.peek() != nullptr)
        out.push_back(s.take());
    if (telemetry != nullptr)
        *telemetry = s.telemetry();
    return out;
}

namespace {
constexpr const char *kScheduleMagic = "pointacc-schedule";
constexpr int kScheduleVersion = 1;
} // namespace

void
writeSchedule(std::ostream &os, const std::vector<Request> &trace)
{
    os << kScheduleMagic << " v" << kScheduleVersion << ' '
       << trace.size() << '\n';
    for (const auto &r : trace)
        os << r.id << ' ' << r.networkId << ' ' << r.sizeBucket << ' '
           << r.cloudId << ' ' << r.arrivalCycle << ' '
           << r.deadlineCycle << '\n';
}

std::vector<Request>
readSchedule(std::istream &is)
{
    std::string magic, version;
    std::uint64_t count = 0;
    if (!(is >> magic >> version >> count) || magic != kScheduleMagic)
        throw std::invalid_argument(
            "not a pointacc schedule (bad magic)");
    if (version != "v1")
        throw std::invalid_argument(
            "unsupported schedule version: " + version);
    std::vector<Request> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Request r;
        if (!(is >> r.id >> r.networkId >> r.sizeBucket >> r.cloudId >>
              r.arrivalCycle >> r.deadlineCycle))
            throw std::invalid_argument(
                "truncated or malformed schedule row " +
                std::to_string(i));
        if (!out.empty() && !arrivalOrderBefore(out.back(), r))
            throw std::invalid_argument(
                "schedule rows out of arrival order at row " +
                std::to_string(i));
        out.push_back(r);
    }
    return out;
}

} // namespace pointacc
