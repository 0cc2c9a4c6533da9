#include "format_sample.hh"

#include <array>
#include <bit>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/components.hh"
#include "sim/report.hh"

namespace kagura
{

namespace
{

/** Give every u64 word of @p stats the next distinct value. */
template <typename Stats>
void
fillDistinct(Stats &stats, std::uint64_t &next)
{
    std::array<std::uint64_t, sizeof(Stats) / sizeof(std::uint64_t)> words;
    for (std::uint64_t &word : words) {
        word = next;
        next += 37;
    }
    stats = std::bit_cast<Stats>(words);
}

} // namespace

SimResult
formatSampleResult()
{
    SimResult r;
    std::uint64_t next = 1000;
    r.workload = "format_sample";
    r.wallCycles = next++;
    r.activeCycles = next++;
    r.committedInstructions = next++;
    r.loads = next++;
    r.stores = next++;
    r.powerFailures = 2;
    r.cycles.resize(3);
    for (PowerCycleRecord &rec : r.cycles)
        fillDistinct(rec, next);
    fillDistinct(r.icache, next);
    fillDistinct(r.dcache, next);
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
        r.ledger.add(static_cast<EnergyCategory>(c),
                     1.25 * static_cast<double>(c + 1) + 0.0625);
    fillDistinct(r.kagura, next);
    r.oracleVetoes = next++;
    r.oracle.addTally(0x4000, 3, 1);
    r.oracle.addTally(0x1040, 2, 5);
    r.replOptAccesses = next++;
    r.replOptHits = next++;
    fillDistinct(r.icacheTags, next);
    fillDistinct(r.dcacheTags, next);
    r.dcacheTags.sbFillDegree[2] = 0; // a zero bin exports nothing
    fillDistinct(r.l2cache, next);
    fillDistinct(r.l2cacheTags, next);
    return r;
}

std::string
resultFormatGolden()
{
    const SimResult r = formatSampleResult();
    std::string out = detail::vformat(
        "encoding %016llx\n",
        static_cast<unsigned long long>(
            runner::fnv1a64(runner::encodeResult(r))));
    out += "json " + toJson(r, true) + "\n";

    SimConfig config;
    config.enableL2 = true;
    metrics::MetricSet set;
    TelemetryComponent(config, r).recordMetrics(set);
    r.kagura.recordMetrics(set, "sim/kagura");
    r.icacheTags.recordMetrics(set, "sim/icache/tags");
    r.dcacheTags.recordMetrics(set, "sim/dcache/tags");
    r.l2cacheTags.recordMetrics(set, "sim/l2/tags");
    for (const metrics::Record &rec : set.snapshot()) {
        out += detail::vformat("metric %s %s %.17g",
                               metrics::recordKindName(rec.kind),
                               rec.name.c_str(), rec.value);
        if (rec.kind == metrics::RecordKind::Histogram) {
            out += detail::vformat(" count=%llu sum=%.17g",
                                   static_cast<unsigned long long>(
                                       rec.count),
                                   rec.sum);
            for (std::uint64_t bucket : rec.bucketCounts)
                out += detail::vformat(" %llu",
                                       static_cast<unsigned long long>(
                                           bucket));
        }
        out += "\n";
    }
    return out;
}

} // namespace kagura
