#include "sim/components.hh"

#include <string>
#include <utility>

#include "cache/acc.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"

namespace kagura
{

void
TelemetryComponent::recordMetrics(metrics::MetricSet &set)
{
    set.labels()["workload"] = result.workload;
    set.labels()["config"] = cfg.describe();

    set.counter("sim/instructions").add(result.committedInstructions);
    set.counter("sim/loads").add(result.loads);
    set.counter("sim/stores").add(result.stores);
    set.counter("sim/power_failures").add(result.powerFailures);
    set.gauge("sim/wall_cycles")
        .set(static_cast<double>(result.wallCycles));
    set.gauge("sim/active_cycles")
        .set(static_cast<double>(result.activeCycles));
    set.gauge("sim/instructions_per_cycle")
        .set(result.instructionsPerCycle());
    if (result.oracleVetoes)
        set.counter("sim/oracle_vetoes").add(result.oracleVetoes);
    if (result.replOptAccesses) {
        metrics::recordCounters(replOptFields, result, set, "sim");
        set.gauge("sim/repl_opt_hit_rate").set(result.replOptHitRate());
    }

    // Perf trajectory: how committed work distributes over the power
    // cycles the run survived (Fig. 12-style shape, bucketed).
    metrics::FixedHistogram &per_cycle = set.histogram(
        "sim/cycle_instructions",
        {10.0, 100.0, 1000.0, 10000.0, 100000.0});
    for (const PowerCycleRecord &rec : result.cycles)
        per_cycle.observe(static_cast<double>(rec.instructions));

    // Optional per-power-cycle time series (--metrics-timeseries):
    // one gauge record per completed cycle and series, indexed by a
    // cycle_index label so downstream tools can reconstruct the
    // trajectory exactly instead of through histogram buckets.
    if (metrics::timeseriesEnabled() && metrics::defaultSink()) {
        std::size_t index = 0;
        for (const PowerCycleRecord &rec : result.cycles) {
            for (const auto &field : powerCycleFields) {
                metrics::Record record;
                record.kind = metrics::RecordKind::Gauge;
                record.name = std::string("sim/cycle/") + field.name;
                record.labels = set.labels();
                record.labels["cycle_index"] = std::to_string(index);
                record.value = static_cast<double>(rec.*field.counter);
                metrics::emitRecord(std::move(record));
            }
            ++index;
        }
    }

    result.icache.recordMetrics(set, "sim/icache");
    result.dcache.recordMetrics(set, "sim/dcache");
    if (cfg.enableL2)
        result.l2cache.recordMetrics(set, "sim/l2");
    result.ledger.recordMetrics(set, "sim/energy");
}

void
KaguraComponent::recordMetrics(metrics::MetricSet &set)
{
    kagura.stats().recordMetrics(set, prefix);
}

void
CompressionStackComponent::recordMetrics(metrics::MetricSet &set)
{
    if (ichain.acc)
        ichain.acc->recordMetrics(set, "sim/icache/acc");
    if (dchain.acc)
        dchain.acc->recordMetrics(set, "sim/dcache/acc");
    if (l2chain && l2chain->acc)
        l2chain->acc->recordMetrics(set, "sim/l2/acc");
    if (comp)
        comp->recordMetrics(set, "sim/compressor");
}

PrefetchComponent::PrefetchComponent(const SimConfig &config,
                                     const EnergyMeter &meter,
                                     Cache &dcache)
{
    // IPEX's intermittence gate: prefetch only while the capacitor
    // still holds comfortable margin above the checkpoint level.
    const double v_gate =
        config.capacitor.vCheckpoint +
        0.4 * (config.capacitor.vRestore - config.capacitor.vCheckpoint);
    prefetcher = std::make_unique<Prefetcher>(
        config.dcache.blockSize, [&meter, v_gate]() {
            return meter.infiniteEnergy() || meter.voltage() > v_gate;
        });
    dcache.setPrefetcher(prefetcher.get());
}

} // namespace kagura
