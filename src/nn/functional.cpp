#include "nn/functional.hpp"

#include <algorithm>
#include <limits>

#include "core/logging.hpp"
#include "core/rng.hpp"

namespace pointacc {

ConvWeights
randomWeights(std::int32_t num_weights, std::uint32_t cin,
              std::uint32_t cout, std::uint64_t seed, float s)
{
    ConvWeights w;
    w.numWeights = num_weights;
    w.cin = cin;
    w.cout = cout;
    w.data.resize(static_cast<std::size_t>(num_weights) * cin * cout);
    Rng rng(seed);
    for (auto &v : w.data)
        v = static_cast<float>(rng.uniform(-s, s));
    return w;
}

ConvWeights
identityWeights(std::int32_t num_weights, std::uint32_t ch)
{
    ConvWeights w;
    w.numWeights = num_weights;
    w.cin = ch;
    w.cout = ch;
    w.data.assign(static_cast<std::size_t>(num_weights) * ch * ch, 0.0f);
    const std::int32_t center = num_weights / 2;
    for (std::uint32_t c = 0; c < ch; ++c)
        w.data[(static_cast<std::size_t>(center) * ch + c) * ch + c] =
            1.0f;
    return w;
}

std::vector<float>
sparseConvForward(const PointCloud &input, const MapSet &maps,
                  const ConvWeights &weights, std::size_t num_outputs)
{
    simAssert(static_cast<std::uint32_t>(input.channels()) == weights.cin,
              "input channel mismatch");
    simAssert(maps.numWeights() == weights.numWeights,
              "kernel volume mismatch");

    std::vector<float> out(num_outputs * weights.cout, 0.0f);
    for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
        const MapGroup &g = maps.forWeight(w);
        for (std::size_t j = 0; j < g.size(); ++j) {
            const float *fin =
                input.featureData().data() +
                static_cast<std::size_t>(g.in[j]) * weights.cin;
            float *fout =
                out.data() + static_cast<std::size_t>(g.out[j]) * weights.cout;
            for (std::uint32_t ci = 0; ci < weights.cin; ++ci) {
                const float x = fin[ci];
                if (x == 0.0f)
                    continue;
                const float *wrow =
                    weights.data.data() +
                    (static_cast<std::size_t>(w) * weights.cin + ci) *
                        weights.cout;
                for (std::uint32_t co = 0; co < weights.cout; ++co)
                    fout[co] += x * wrow[co];
            }
        }
    }
    return out;
}

std::vector<float>
denseForward(const std::vector<float> &features, std::size_t num_points,
             const ConvWeights &weights)
{
    simAssert(weights.numWeights == 1, "dense layer has one weight");
    simAssert(features.size() == num_points * weights.cin,
              "feature size mismatch");

    std::vector<float> out(num_points * weights.cout, 0.0f);
    for (std::size_t p = 0; p < num_points; ++p) {
        const float *fin = features.data() + p * weights.cin;
        float *fout = out.data() + p * weights.cout;
        for (std::uint32_t ci = 0; ci < weights.cin; ++ci) {
            const float x = fin[ci];
            if (x == 0.0f)
                continue;
            const float *wrow = weights.data.data() +
                                static_cast<std::size_t>(ci) * weights.cout;
            for (std::uint32_t co = 0; co < weights.cout; ++co)
                fout[co] += x * wrow[co];
        }
    }
    return out;
}

void
reluInPlace(std::vector<float> &features)
{
    for (auto &v : features)
        v = std::max(v, 0.0f);
}

std::vector<float>
maxPoolByOutput(const std::vector<float> &edge_features, const MapSet &maps,
                std::uint32_t channels, std::size_t num_outputs)
{
    std::vector<float> out(num_outputs * channels,
                           -std::numeric_limits<float>::infinity());
    std::vector<bool> touched(num_outputs, false);

    std::size_t row = 0;
    for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
        for (const PointIndex q : maps.forWeight(w).out) {
            const float *fin = edge_features.data() + row * channels;
            float *fout = out.data() + static_cast<std::size_t>(q) * channels;
            for (std::uint32_t c = 0; c < channels; ++c)
                fout[c] = std::max(fout[c], fin[c]);
            touched[q] = true;
            ++row;
        }
    }
    simAssert(row * channels == edge_features.size(),
              "edge feature rows must equal map count");
    for (std::size_t q = 0; q < num_outputs; ++q) {
        if (!touched[q]) {
            std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(
                                          q * channels),
                        channels, 0.0f);
        }
    }
    return out;
}

} // namespace pointacc
