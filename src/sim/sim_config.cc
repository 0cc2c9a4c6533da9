#include "sim/sim_config.hh"

#include <cstdio>

namespace kagura
{

std::string
SimConfig::describe() const
{
    std::string out = workload;
    out += " / ";
    out += ehsKindName(ehs);
    if (governor == GovernorKind::None) {
        out += " / no-compression";
    } else {
        out += " / ";
        out += compressorKindName(compressor);
        out += "+";
        out += governorKindName(governor);
        if (enableKagura) {
            out += "+Kagura(";
            out += triggerKindName(kagura.trigger);
            out += ")";
        }
    }
    if (enableDecay)
        out += " +EDBP";
    if (enablePrefetch)
        out += " +IPEX";
    // LRU is Table I's fixed policy; only deviations earn a label.
    if (icache.replacement != ReplKind::Lru ||
        dcache.replacement != ReplKind::Lru) {
        out += " / repl=";
        out += replacementPolicyName(dcache.replacement);
        if (icache.replacement != dcache.replacement) {
            out += "/i=";
            out += replacementPolicyName(icache.replacement);
        }
    }
    // Likewise for the tag layout: baseline is the paper's scheme.
    if (icache.tagLayout != TagLayoutKind::Baseline ||
        dcache.tagLayout != TagLayoutKind::Baseline) {
        out += " / tags=";
        out += tagLayoutName(dcache.tagLayout);
        if (icache.tagLayout != dcache.tagLayout) {
            out += "/i=";
            out += tagLayoutName(icache.tagLayout);
        }
    }
    if (enableL2) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " / L2=%uB/%uw", l2.sizeBytes,
                      l2.ways);
        out += buf;
        if (l2Governor != GovernorKind::None) {
            out += "+";
            out += governorKindName(l2Governor);
            if (l2Kagura)
                out += "+Kagura";
        }
    }
    return out;
}

} // namespace kagura
