#include "sim/report.hh"

#include <string>

#include "common/logging.hh"
#include "metrics/sink.hh"
#include "runner/result_codec.hh"

namespace kagura
{

namespace
{

/** Append "name":value for every (non-histogram) counter of @p s. */
template <typename S, std::size_t N>
void
appendCounters(std::string &out,
               const metrics::CounterField<S> (&fields)[N], const S &s)
{
    const char *sep = "";
    for (const metrics::CounterField<S> &field : fields) {
        kagura_assert(field.counter);
        out += sep;
        out += '"';
        out += field.name;
        out += "\":";
        out += std::to_string(s.*field.counter);
        sep = ",";
    }
}

} // namespace

std::string
toJson(const SimResult &r, bool include_cycles)
{
    std::string out;
    out.reserve(2048);
    out += "{\"workload\":\"" + metrics::jsonEscape(r.workload) + "\",";
    appendCounters(out, simResultHeaderFields, r);
    out += detail::vformat(",\"instructions_per_cycle\":%.3f,",
                           r.instructionsPerCycle());

    out += "\"energy_pj\":{";
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c) {
        const auto cat = static_cast<EnergyCategory>(c);
        out += detail::vformat("\"%s\":%.3f,", energyCategoryName(cat),
                               r.ledger.total(cat));
    }
    out += detail::vformat("\"total\":%.3f},", r.ledger.grandTotal());

    for (const auto &[name, stats] :
         {std::pair{"icache", &r.icache}, std::pair{"dcache", &r.dcache}}) {
        out += detail::vformat("\"%s\":{", name);
        appendCounters(out, cacheStatsFields, *stats);
        out += detail::vformat(",\"miss_rate\":%.6f},", stats->missRate());
    }
    out += "\"kagura\":{";
    appendCounters(out, kaguraStatsFields, r.kagura);
    out += "},\"oracle_vetoes\":" + std::to_string(r.oracleVetoes);

    if (include_cycles) {
        out += ",\"cycles\":[";
        for (std::size_t i = 0; i < r.cycles.size(); ++i) {
            out += i ? ",{" : "{";
            appendCounters(out, powerCycleFields, r.cycles[i]);
            out += "}";
        }
        out += "]";
    }
    out += "}";
    return out;
}

void
writeJson(const SimResult &result, std::FILE *out, bool include_cycles)
{
    const std::string json = toJson(result, include_cycles);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
}

bool
exactlyEqual(const SimResult &a, const SimResult &b)
{
    return runner::encodeResult(a) == runner::encodeResult(b);
}

} // namespace kagura
