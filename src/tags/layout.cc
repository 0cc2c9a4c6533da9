#include "tags/layout.hh"

#include "common/logging.hh"
#include "tags/baseline.hh"
#include "tags/signature.hh"
#include "tags/superblock.hh"

namespace kagura
{
namespace tags
{

void
TagLayoutStats::recordMetrics(metrics::MetricSet &set,
                              std::string_view prefix) const
{
    metrics::recordCounters(tagLayoutStatsFields, *this, set, prefix);
}

void
TagLayout::recordMetrics(metrics::MetricSet &mset,
                         std::string_view prefix) const
{
    if (!stat.any())
        return; // baseline: keep the metric namespace untouched
    stat.recordMetrics(mset, prefix);
}

std::unique_ptr<TagLayout>
makeTagLayout(TagLayoutKind kind, const TagGeometry &geometry)
{
    if (!geometry.sets || !geometry.slotsPerSet)
        panic("makeTagLayout: degenerate geometry (%u sets, %u slots)",
              geometry.sets, geometry.slotsPerSet);
    switch (kind) {
      case TagLayoutKind::Baseline:
        return std::make_unique<BaselineTags>(geometry);
      case TagLayoutKind::Superblock:
        return std::make_unique<SuperblockTags>(geometry);
      case TagLayoutKind::Signature:
        return std::make_unique<SignatureTags>(geometry);
    }
    panic("makeTagLayout: unknown TagLayoutKind %d",
          static_cast<int>(kind));
}

} // namespace tags
} // namespace kagura
