/**
 * @file
 * Result-counter field lists. Each result struct names its counters
 * once, in an ordered array of CounterField beside the struct (its
 * metric leaf / JSON key and member pointer): CacheStats,
 * tags::TagLayoutStats, KaguraStats, PowerCycleRecord and SimResult's
 * header scalars. The walkers below, the result codec, the JSON
 * report and TagLayoutStats::any()/add() all iterate those arrays;
 * an array's order is the codec's word order.
 */

#ifndef KAGURA_METRICS_COUNTER_FIELDS_HH
#define KAGURA_METRICS_COUNTER_FIELDS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "metrics/fwd.hh"

namespace kagura
{
namespace metrics
{

/** Bins of a histogram counter (the superblock fill-degree one). */
constexpr std::size_t histogramBins = 4;

/** One counter of struct @p S: a u64, or a histogram's bins. */
template <typename S>
struct CounterField
{
    const char *name;
    std::uint64_t S::*counter = nullptr;
    std::uint64_t (S::*bins)[histogramBins] = nullptr;

    /** The field's words in @p s (an S or const S), in codec order. */
    template <typename Stats>
    auto
    words(Stats &s) const
    {
        return counter ? std::span(&(s.*counter), 1)
                       : std::span(s.*bins + 0, histogramBins);
    }
};

/** Call @p f on every word of @p s (an S or const S), in codec order. */
template <typename S, std::size_t N, typename Stats, typename F>
void
forEachWord(const CounterField<S> (&fields)[N], Stats &s, F &&f)
{
    for (const CounterField<S> &field : fields) {
        for (auto &word : field.words(s))
            f(word);
    }
}

/**
 * Export one field as counter "<prefix>/<name>" or, for a histogram,
 * each nonzero bin k (from 1) as "<prefix>/<name>/<k>".
 */
void recordCounter(MetricSet &set, std::string_view prefix,
                   std::string_view name,
                   std::span<const std::uint64_t> words, bool histogram);

/** Export every counter of @p s under "<prefix>/...". */
template <typename S, std::size_t N>
void
recordCounters(const CounterField<S> (&fields)[N], const S &s,
               MetricSet &set, std::string_view prefix)
{
    for (const CounterField<S> &field : fields)
        recordCounter(set, prefix, field.name, field.words(s),
                      field.bins != nullptr);
}

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_COUNTER_FIELDS_HH
