#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/json.hpp"
#include "runtime/serving_stats.hpp"

namespace perfbench {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
clockOverheadNs()
{
    static const std::uint64_t overhead = [] {
        std::vector<std::uint64_t> samples(2001);
        for (auto &s : samples) {
            const std::uint64_t t0 = nowNs();
            s = nowNs() - t0;
        }
        std::nth_element(samples.begin(),
                         samples.begin() + samples.size() / 2,
                         samples.end());
        return samples[samples.size() / 2];
    }();
    return overhead;
}

// ------------------------------------------------------------------ //
// Options                                                            //
// ------------------------------------------------------------------ //

namespace {

constexpr std::pair<WorkloadKind, const char *> kWorkloadNames[] = {
    {WorkloadKind::ServeOverload, "serve_overload"},
    {WorkloadKind::ServeStream, "serve_stream"},
    {WorkloadKind::InferZoo, "infer_zoo"},
};

std::uint64_t
parseSeed(const std::string &text)
{
    if (text.empty() || text.size() > 20)
        throw std::invalid_argument("--seed must be a non-negative "
                                    "integer, got '" + text + "'");
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw std::invalid_argument("--seed must be a non-negative "
                                        "integer, got '" + text + "'");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            throw std::invalid_argument("--seed does not fit 64 bits: '" +
                                        text + "'");
        value = value * 10 + digit;
    }
    return value;
}

double
parseSeconds(const std::string &text)
{
    std::size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || !std::isfinite(value) ||
        value <= 0.0 || value > 3600.0)
        throw std::invalid_argument("--seconds must be a number in "
                                    "(0, 3600], got '" + text + "'");
    return value;
}

bool
parseSwitch(const std::string &flag, const std::string &text)
{
    if (text != "0" && text != "1")
        throw std::invalid_argument(flag + " must be 0 or 1, got '" + text +
                                    "'");
    return text == "1";
}

} // namespace

const char *
toString(WorkloadKind kind)
{
    for (const auto &[k, name] : kWorkloadNames)
        if (k == kind)
            return name;
    return "unknown";
}

WorkloadKind
parseWorkload(const std::string &name)
{
    for (const auto &[kind, known] : kWorkloadNames)
        if (name == known)
            return kind;
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected serve_overload, "
                                "serve_stream or infer_zoo)");
}

Options
parseOptions(const std::vector<std::string> &args)
{
    Options opt;
    bool haveWorkload = false;
    bool haveSeed = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" && flag != "--fig13")
            throw std::invalid_argument("unknown argument '" + flag + "'");
        if (i + 1 >= args.size())
            throw std::invalid_argument(flag + " needs a value");
        const std::string &value = args[++i];
        if (flag == "--workload") {
            opt.workload = parseWorkload(value);
            haveWorkload = true;
        } else if (flag == "--seed") {
            opt.seed = parseSeed(value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            opt.seconds = parseSeconds(value);
        } else if (flag == "--trace") {
            opt.trace = parseSwitch(flag, value);
        } else {
            opt.fig13 = parseSwitch(flag, value);
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    if (!haveSeed)
        throw std::invalid_argument("--seed is required");
    return opt;
}

// ------------------------------------------------------------------ //
// Digests                                                            //
// ------------------------------------------------------------------ //

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t hash)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnv1aValue(std::uint64_t value, std::uint64_t hash)
{
    char bytes[sizeof value];
    for (std::size_t i = 0; i < sizeof value; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    return fnv1a(std::string_view(bytes, sizeof bytes), hash);
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t
servingDigest(const pointacc::ServingReport &report)
{
    std::ostringstream os;
    pointacc::writeServingJson(os, report);
    return fnv1a(os.str());
}

DigestTable
DigestTable::load(const std::string &path)
{
    DigestTable table;
    std::ifstream in(path);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        Entry entry;
        std::string list;
        if (!(fields >> entry.workload >> entry.seed >> list))
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": expected '<workload> <seed> "
                                     "<hex>,...'");
        std::istringstream items(list);
        std::string item;
        while (std::getline(items, item, ','))
            entry.digests.push_back(std::stoull(item, nullptr, 16));
        table.entries.push_back(std::move(entry));
    }
    return table;
}

const std::vector<std::uint64_t> *
DigestTable::find(const std::string &workload, std::uint64_t seed) const
{
    for (const auto &entry : entries)
        if (entry.workload == workload && entry.seed == seed)
            return &entry.digests;
    return nullptr;
}

// ------------------------------------------------------------------ //
// Timing decorators                                                  //
// ------------------------------------------------------------------ //

std::uint64_t
CallMeter::estimatedNs() const
{
    const std::uint64_t clock = timedCalls * clockOverheadNs();
    if (timedCalls == 0 || timedNs <= clock)
        return 0;
    return static_cast<std::uint64_t>(
        static_cast<double>(timedNs - clock) * static_cast<double>(calls) /
            static_cast<double>(timedCalls) +
        0.5);
}

TimedRequestSource::TimedRequestSource(pointacc::RequestSource &inner,
                                       std::uint32_t stride)
    : inner(inner)
{
    calls.stride = stride;
}

const pointacc::Request *
TimedRequestSource::peek()
{
    return calls.measure([this] { return inner.peek(); });
}

pointacc::Request
TimedRequestSource::take()
{
    ++numTakes;
    return calls.measure([this] { return inner.take(); });
}

TimedServiceModel::TimedServiceModel(const pointacc::ServiceModel &inner,
                                     std::uint32_t stride)
    : inner(inner)
{
    calls.stride = stride;
}

pointacc::ServiceProfile
TimedServiceModel::profile(const pointacc::AcceleratorConfig &cfg,
                           std::uint32_t network_id,
                           std::uint32_t bucket) const
{
    return calls.measure(
        [&] { return inner.profile(cfg, network_id, bucket); });
}

std::uint64_t
TimedServiceModel::layerConfigHash(std::uint32_t network_id) const
{
    return calls.measure([&] { return inner.layerConfigHash(network_id); });
}

// ------------------------------------------------------------------ //
// Visitor-gap attribution                                            //
// ------------------------------------------------------------------ //

namespace {

GapKind
gapKindOf(pointacc::MappingOpKind kind)
{
    using pointacc::MappingOpKind;
    switch (kind) {
      case MappingOpKind::Fps: return GapKind::Fps;
      case MappingOpKind::KernelMap: return GapKind::KernelMap;
      case MappingOpKind::Knn: return GapKind::Knn;
      case MappingOpKind::BallQuery: return GapKind::BallQuery;
      case MappingOpKind::Quantize: return GapKind::Quantize;
    }
    return GapKind::None;
}

} // namespace

const char *
gapKindName(GapKind kind)
{
    static constexpr const char *kNames[kGapKinds] = {
        "fps", "kernel_map", "knn", "ball_query", "quantize", "none"};
    return kNames[static_cast<std::size_t>(kind)];
}

std::uint64_t
mappingWork(const pointacc::MappingOpInfo &op)
{
    // The per-op terms of summarizeWorkload (nn/executor.cpp).
    using pointacc::MappingOpKind;
    switch (op.kind) {
      case MappingOpKind::Fps:
        return op.inputPoints * op.outputPoints;
      case MappingOpKind::BallQuery:
      case MappingOpKind::Knn:
        return op.inputPoints * op.outputPoints *
               std::max<std::uint32_t>(op.distanceDims, 3) / 3;
      case MappingOpKind::KernelMap:
        return (op.inputPoints + op.outputPoints) *
               static_cast<std::uint64_t>(std::max(op.kernelVolume, 1));
      case MappingOpKind::Quantize:
        return op.inputPoints;
    }
    return 0;
}

void
GapAttributor::start()
{
    runGaps.clear();
    runStart = last = clock();
}

void
GapAttributor::close(GapKind kind, std::uint64_t now)
{
    nsByKind[static_cast<std::size_t>(kind)] += now - last;
    runGaps.push_back({kind, last, now});
    last = now;
}

void
GapAttributor::visit(const pointacc::LayerWork &work)
{
    const std::uint64_t now = clock();
    const GapKind kind = work.mappingOps.empty()
                             ? GapKind::None
                             : gapKindOf(work.mappingOps.front().kind);
    close(kind, now);
    for (const auto &op : work.mappingOps)
        workByKind[static_cast<std::size_t>(kind)] += mappingWork(op);
}

void
GapAttributor::finish()
{
    const std::uint64_t now = clock();
    close(GapKind::None, now);
    totalWallNs += now - runStart;
}

// ------------------------------------------------------------------ //
// Span log                                                           //
// ------------------------------------------------------------------ //

std::uint32_t
SpanLog::threadIndex()
{
    const std::size_t id =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    for (std::size_t i = 0; i < threads.size(); ++i)
        if (threads[i] == id)
            return static_cast<std::uint32_t>(i);
    threads.push_back(id);
    return static_cast<std::uint32_t>(threads.size() - 1);
}

std::int64_t
SpanLog::add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
             std::int64_t parent)
{
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({std::move(name), start_ns, end_ns, parent,
                     threadIndex()});
    return static_cast<std::int64_t>(spans.size() - 1);
}

std::int64_t
SpanLog::open(std::string name, std::uint64_t start_ns, std::int64_t parent)
{
    return add(std::move(name), start_ns, start_ns, parent);
}

void
SpanLog::finish(std::int64_t id, std::uint64_t end_ns)
{
    std::lock_guard<std::mutex> lock(mutex);
    spans.at(static_cast<std::size_t>(id)).endNs = end_ns;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream out(path);
    if (!out)
        return false;
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().startNs;
    pointacc::JsonWriter w(out);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", std::uint64_t{1});
        w.field("tid", static_cast<std::uint64_t>(s.thread));
        // Viewer timestamps are whole microseconds; args keep the ns.
        w.field("ts", (s.startNs - origin) / 1000);
        w.field("dur", (s.endNs - s.startNs) / 1000);
        w.key("args").beginObject();
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("parent", static_cast<std::int64_t>(s.parent));
        w.field("workload", workloadName);
        w.field("start_ns", s.startNs);
        w.field("end_ns", s.endNs);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
