/**
 * @file
 * Tag-layout telemetry: the counters a TagLayout accrues while it
 * organises a cache's tags. Split from layout.hh so result consumers
 * (SimResult, the runner codec, reports) can carry the counters
 * without seeing the layout machinery.
 *
 * Encoding contract: BaselineTags records *nothing* here -- its
 * telemetry is the pre-existing CacheStats -- so the runner codec's
 * tag-stats section, present only when a counter is nonzero, leaves
 * every pre-subsystem byte stream unchanged.
 */

#ifndef KAGURA_TAGS_STATS_HH
#define KAGURA_TAGS_STATS_HH

#include <cstdint>
#include <string_view>

#include "metrics/counter_fields.hh"
#include "metrics/fwd.hh"

namespace kagura
{
namespace tags
{

/** Blocks per DISH-style superblock (fixed by the layout). */
constexpr unsigned blocksPerSuperblock = 4;

/** What one tag layout did over a run. */
struct TagLayoutStats
{
    /** Fills that joined an existing superblock entry (shared tag). */
    std::uint64_t tagCompactions = 0;
    /** Fresh superblock tag entries allocated. */
    std::uint64_t sbAllocations = 0;
    /**
     * Superblock fill-degree histogram: after each fill into a
     * superblock entry, the entry's live-block count k increments
     * sbFillDegree[k-1].
     */
    std::uint64_t sbFillDegree[blocksPerSuperblock] = {};

    /** Signature matches that triggered a full-tag re-check. */
    std::uint64_t sigRechecks = 0;
    /** Re-checks whose full tag differed (false positives). */
    std::uint64_t sigFalsePositives = 0;

    /** Live tag entries persisted at a checkpoint flush. */
    std::uint64_t metadataFlushes = 0;
    /** Live tag entries dropped with the power (lost, not flushed). */
    std::uint64_t metadataLosses = 0;

    /** Occupancy samples (one per fill). */
    std::uint64_t occupancySamples = 0;
    /** Sum over samples of live tag entries in the filled set. */
    std::uint64_t tagsLiveSum = 0;
    /** Sum over samples of resident blocks in the filled set. */
    std::uint64_t residentBlockSum = 0;

    /** Any counter nonzero? (Gates the optional codec section.) */
    bool any() const;

    /** Accumulate @p other (suite/seed aggregation). */
    void add(const TagLayoutStats &other);

    /** Mean resident blocks per set at fill time (0 when idle). */
    double
    meanResidentBlocks() const
    {
        return occupancySamples
                   ? static_cast<double>(residentBlockSum) /
                         static_cast<double>(occupancySamples)
                   : 0.0;
    }

    /** Mean live tag entries per set at fill time (0 when idle). */
    double
    meanLiveTags() const
    {
        return occupancySamples
                   ? static_cast<double>(tagsLiveSum) /
                         static_cast<double>(occupancySamples)
                   : 0.0;
    }

    /**
     * Export every counter into @p set under "<prefix>/..." names
     * (no-op series are still recorded; callers gate on any()).
     */
    void recordMetrics(metrics::MetricSet &set,
                       std::string_view prefix) const;
};

static_assert(blocksPerSuperblock == metrics::histogramBins);

/** TagLayoutStats' counters, in codec order (metrics/counter_fields.hh). */
inline constexpr metrics::CounterField<TagLayoutStats>
    tagLayoutStatsFields[] = {
        {"compactions", &TagLayoutStats::tagCompactions},
        {"sb_allocations", &TagLayoutStats::sbAllocations},
        {.name = "sb_fill_degree", .bins = &TagLayoutStats::sbFillDegree},
        {"sig_rechecks", &TagLayoutStats::sigRechecks},
        {"sig_false_positives", &TagLayoutStats::sigFalsePositives},
        {"metadata_flushes", &TagLayoutStats::metadataFlushes},
        {"metadata_losses", &TagLayoutStats::metadataLosses},
        {"occupancy_samples", &TagLayoutStats::occupancySamples},
        {"tags_live_sum", &TagLayoutStats::tagsLiveSum},
        {"resident_block_sum", &TagLayoutStats::residentBlockSum},
};

inline bool
TagLayoutStats::any() const
{
    bool any = false;
    metrics::forEachWord(tagLayoutStatsFields, *this,
                         [&any](std::uint64_t word) { any |= word != 0; });
    return any;
}

inline void
TagLayoutStats::add(const TagLayoutStats &other)
{
    for (const auto &field : tagLayoutStatsFields) {
        const auto sum = field.words(*this);
        const auto more = field.words(other);
        for (std::size_t i = 0; i < sum.size(); ++i)
            sum[i] += more[i];
    }
}

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_STATS_HH
