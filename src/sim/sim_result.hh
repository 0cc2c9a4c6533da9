/**
 * @file
 * What one simulation run produces: the per-power-cycle records
 * (Figs. 12, 13-bottom, 14) and the aggregate SimResult. Split from
 * the simulator so result consumers (runner codec, reports, metrics)
 * need not see the simulation machinery.
 */

#ifndef KAGURA_SIM_SIM_RESULT_HH
#define KAGURA_SIM_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "energy/ledger.hh"
#include "kagura/kagura.hh"
#include "kagura/oracle.hh"
#include "metrics/counter_fields.hh"

namespace kagura
{

/** Per-power-cycle record (Figs. 12, 13-bottom, 14). */
struct PowerCycleRecord
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycles activeCycles = 0;

    /** Cycles-per-instruction within the cycle. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(activeCycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** PowerCycleRecord's counters, in codec order (JSON keys). */
inline constexpr metrics::CounterField<PowerCycleRecord>
    powerCycleFields[] = {
        {"instructions", &PowerCycleRecord::instructions},
        {"loads", &PowerCycleRecord::loads},
        {"stores", &PowerCycleRecord::stores},
        {"active_cycles", &PowerCycleRecord::activeCycles},
};

/** Everything one run produced. */
struct SimResult
{
    std::string workload;

    /** Wall-clock cycles, including recharge (the speedup metric). */
    Cycles wallCycles = 0;

    /** Cycles the core was actually executing. */
    Cycles activeCycles = 0;

    std::uint64_t committedInstructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Completed power cycles (= number of power failures). */
    std::uint64_t powerFailures = 0;

    /** Per-cycle records, in order (the final partial cycle included). */
    std::vector<PowerCycleRecord> cycles;

    CacheStats icache;
    CacheStats dcache;
    EnergyLedger ledger;

    KaguraStats kagura;
    std::uint64_t oracleVetoes = 0;

    /**
     * Size-aware OPTgen upper bound (ReplKind::SizeOptgen only),
     * summed over both caches: demand accesses the offline model saw
     * and the hits an optimal replacement schedule could have
     * attained. Zero for online policies.
     */
    std::uint64_t replOptAccesses = 0;
    std::uint64_t replOptHits = 0;

    /**
     * Tag-layout telemetry (src/tags). All-zero for the baseline
     * layout, whose counters live in CacheStats already.
     */
    tags::TagLayoutStats icacheTags;
    tags::TagLayoutStats dcacheTags;

    /** Shared-L2 telemetry (SimConfig::enableL2 only; else all-zero). */
    CacheStats l2cache;
    tags::TagLayoutStats l2cacheTags;

    /** Attainable hit rate of the offline replacement bound. */
    double
    replOptHitRate() const
    {
        return replOptAccesses ? static_cast<double>(replOptHits) /
                                     static_cast<double>(replOptAccesses)
                               : 0.0;
    }

    /** Phase-1 oracle log (OracleMode::Record only). */
    OracleLog oracle;

    /** Average committed instructions per completed power cycle. */
    double
    instructionsPerCycle() const
    {
        if (powerFailures == 0)
            return static_cast<double>(committedInstructions);
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const PowerCycleRecord &rec : cycles) {
            if (n == powerFailures)
                break;
            sum += static_cast<double>(rec.instructions);
            ++n;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

    /** Total compressions across both caches. */
    std::uint64_t
    compressions() const
    {
        return icache.compressions + dcache.compressions;
    }
};

/**
 * SimResult's header scalars, in codec order (JSON keys). Their
 * headline metrics keep older names and kinds (sim/instructions, a
 * sim/wall_cycles gauge), so TelemetryComponent exports them by hand.
 */
inline constexpr metrics::CounterField<SimResult> simResultHeaderFields[] = {
    {"wall_cycles", &SimResult::wallCycles},
    {"active_cycles", &SimResult::activeCycles},
    {"committed_instructions", &SimResult::committedInstructions},
    {"loads", &SimResult::loads},
    {"stores", &SimResult::stores},
    {"power_failures", &SimResult::powerFailures},
};

/** The OPTgen bound's counters (the codec's untagged section). */
inline constexpr metrics::CounterField<SimResult> replOptFields[] = {
    {"repl_opt_accesses", &SimResult::replOptAccesses},
    {"repl_opt_hits", &SimResult::replOptHits},
};

} // namespace kagura

#endif // KAGURA_SIM_SIM_RESULT_HH
