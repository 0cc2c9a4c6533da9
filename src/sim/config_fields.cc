#include "sim/config_fields.hh"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "core/workload.hh"
#include "trace/trace_workload.hh"

namespace kagura
{

bool
nameMatches(std::string_view text, std::string_view name)
{
    std::size_t i = 0;
    std::size_t j = 0;
    for (;; ++i, ++j) {
        while (i < text.size() && text[i] == '-')
            ++i;
        while (j < name.size() && name[j] == '-')
            ++j;
        if (i == text.size() || j == name.size())
            return i == text.size() && j == name.size();
        if (std::tolower(static_cast<unsigned char>(text[i])) !=
            std::tolower(static_cast<unsigned char>(name[j])))
            return false;
    }
}

namespace
{

// ---------------------------------------------------------------
// Value kinds: how one value is printed into and parsed from a key.
// ---------------------------------------------------------------

/** A number parsed by std::from_chars, which must consume it all. */
template <typename T>
struct Number
{
    using Type = T;
    static bool
    parse(std::string_view s, T &v)
    {
        const char *end = s.data() + s.size();
        const auto [ptr, ec] = std::from_chars(s.data(), end, v);
        return !s.empty() && ec == std::errc() && ptr == end;
    }
};

template <typename T>
struct Int : Number<T>
{
    static void
    print(std::string &out, T v)
    {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
};

using U32 = Int<unsigned>;
using U64 = Int<std::uint64_t>;

/** Round-trip exact: the digits printf's %.17g prints. */
struct F64 : Number<double>
{
    static void
    print(std::string &out, double v)
    {
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::general, 17)
                            .ptr);
    }
};

struct Bool
{
    using Type = bool;
    static void print(std::string &out, bool v) { out += v ? '1' : '0'; }
    static bool
    parse(std::string_view s, bool &v)
    {
        if (s != "0" && s != "1")
            return false;
        v = s == "1";
        return true;
    }
};

struct Text
{
    using Type = std::string;
    static void print(std::string &out, const std::string &v) { out += v; }
    static bool
    parse(std::string_view s, std::string &v)
    {
        v = s;
        return !v.empty();
    }
};

/** An enum spelled by its *Name() string. */
template <typename E>
struct Named
{
    using Type = E;
    static void
    print(std::string &out, E v)
    {
        out += EnumNames<E>::name(v);
    }
    static bool
    parse(std::string_view s, E &v)
    {
        const auto parsed = parseEnum<E>(s);
        v = parsed.value_or(v);
        return parsed.has_value();
    }
};

/** An enum spelled as its integer value, 0 up to @p Last. */
template <auto Last>
struct Coded
{
    using Type = decltype(Last);
    static void
    print(std::string &out, Type v)
    {
        Int<int>::print(out, static_cast<int>(v));
    }
    static bool
    parse(std::string_view s, Type &v)
    {
        unsigned value = 0;
        if (!U32::parse(s, value) || value > static_cast<unsigned>(Last))
            return false;
        v = static_cast<Type>(value);
        return true;
    }
};

// ---------------------------------------------------------------
// The field table.
// ---------------------------------------------------------------

const SimConfig &
defaultConfig()
{
    static const SimConfig config;
    return config;
}

/** One `key=value` line. */
struct Field
{
    std::string_view key;
    void (*print)(std::string &out, const SimConfig &cfg);
    bool (*parse)(SimConfig &cfg, std::string_view text);
    /** Set for lines emitted only off the default (nullptr: always). */
    bool (*isDefault)(const SimConfig &cfg);
};

/** The field at the end of member-pointer @p Path, read as @p Kind. */
template <typename Kind, auto... Path>
struct Leaf
{
    /** SimConfig or const SimConfig. */
    template <typename Config>
    static auto &
    at(Config &cfg)
    {
        return (cfg .* ... .* Path);
    }
    static void
    print(std::string &out, const SimConfig &cfg)
    {
        Kind::print(out, at(cfg));
    }
    static bool
    parse(SimConfig &cfg, std::string_view text)
    {
        return Kind::parse(text, at(cfg));
    }
    static bool
    isDefault(const SimConfig &cfg)
    {
        return at(cfg) == at(defaultConfig());
    }
};

enum class Emit
{
    Always,
    UnlessDefault,
};

template <typename Kind, auto... Path>
constexpr Field
field(std::string_view key, Emit emit = Emit::Always)
{
    using L = Leaf<Kind, Path...>;
    static_assert(
        std::is_same_v<std::remove_cvref_t<decltype(L::at(
                           std::declval<SimConfig &>()))>,
                       typename Kind::Type>,
        "value kind does not match the field's type");
    return {key, &L::print, &L::parse,
            emit == Emit::UnlessDefault ? &L::isDefault : nullptr};
}

/**
 * The cache sub-block, shared by icache, dcache and l2. tag_layout
 * and sig_bits are emitted only off their defaults: the baseline
 * layout and 6-bit signatures predate these keys, so emitting them
 * would invalidate every cached result (and the committed fixture)
 * for configurations whose behaviour did not change.
 */
template <CacheConfig SimConfig::*C>
constexpr Field cacheFields[] = {
    field<U32, C, &CacheConfig::sizeBytes>("size_bytes"),
    field<U32, C, &CacheConfig::ways>("ways"),
    field<U32, C, &CacheConfig::blockSize>("block_size"),
    field<U32, C, &CacheConfig::segmentBytes>("segment_bytes"),
    field<Named<ReplKind>, C, &CacheConfig::replacement>("replacement"),
    field<Named<TagLayoutKind>, C, &CacheConfig::tagLayout>(
        "tag_layout", Emit::UnlessDefault),
    field<U32, C, &CacheConfig::sigBits>("sig_bits", Emit::UnlessDefault),
};

constexpr Field workloadFields[] = {
    field<Text, &SimConfig::workload>("workload"),
};

constexpr Field l2Enabled[] = {
    field<Bool, &SimConfig::enableL2>("enabled"),
};

constexpr Field l2Chain[] = {
    field<Named<GovernorKind>, &SimConfig::l2Governor>("governor"),
    field<Bool, &SimConfig::l2Kagura>("kagura"),
};

constexpr Field platformFields[] = {
    field<Named<GovernorKind>, &SimConfig::governor>("governor"),
    field<Named<CompressorKind>, &SimConfig::compressor>("compressor"),
    field<Bool, &SimConfig::enableKagura>("kagura.enabled"),
    field<Named<AdaptScheme>, &SimConfig::kagura, &KaguraConfig::scheme>(
        "kagura.scheme"),
    field<F64, &SimConfig::kagura, &KaguraConfig::increaseStep>(
        "kagura.increase_step"),
    field<U32, &SimConfig::kagura, &KaguraConfig::counterBits>(
        "kagura.counter_bits"),
    field<U32, &SimConfig::kagura, &KaguraConfig::historyDepth>(
        "kagura.history_depth"),
    field<Named<TriggerKind>, &SimConfig::kagura, &KaguraConfig::trigger>(
        "kagura.trigger"),
    field<U64, &SimConfig::kagura, &KaguraConfig::initialThreshold>(
        "kagura.initial_threshold"),
    field<F64, &SimConfig::kagura, &KaguraConfig::rewardBand>(
        "kagura.reward_band"),
    field<F64, &SimConfig::kagura, &KaguraConfig::voltageTriggerFraction>(
        "kagura.voltage_trigger_fraction"),
    field<Bool, &SimConfig::kagura, &KaguraConfig::applyAdjustment>(
        "kagura.apply_adjustment"),
    field<Bool, &SimConfig::kagura, &KaguraConfig::adaptiveThreshold>(
        "kagura.adaptive_threshold"),
    field<Named<EhsKind>, &SimConfig::ehs>("ehs"),
    field<Named<NvmType>, &SimConfig::nvmType>("nvm.type"),
    field<U64, &SimConfig::nvmBytes>("nvm.bytes"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::capacitance>(
        "capacitor.capacitance"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::vMax>(
        "capacitor.v_max"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::vRestore>(
        "capacitor.v_restore"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::vCheckpoint>(
        "capacitor.v_checkpoint"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::vShutdown>(
        "capacitor.v_shutdown"),
    field<F64, &SimConfig::capacitor, &CapacitorConfig::leakagePerFarad>(
        "capacitor.leakage_per_farad"),
    field<F64, &SimConfig::energy, &EnergyModel::clockHz>(
        "energy.clock_hz"),
    field<F64, &SimConfig::energy, &EnergyModel::corePerInstr>(
        "energy.core_per_instr"),
    field<F64, &SimConfig::energy, &EnergyModel::coreLeakage>(
        "energy.core_leakage"),
    field<F64, &SimConfig::energy, &EnergyModel::cacheAccess>(
        "energy.cache_access"),
    field<F64, &SimConfig::energy, &EnergyModel::cacheLeakagePerByte>(
        "energy.cache_leakage_per_byte"),
    field<F64, &SimConfig::energy, &EnergyModel::nvffWrite>(
        "energy.nvff_write"),
    field<F64, &SimConfig::energy, &EnergyModel::nvffRead>(
        "energy.nvff_read"),
    field<F64, &SimConfig::energy, &EnergyModel::monitorSample>(
        "energy.monitor_sample"),
    field<F64, &SimConfig::energy, &EnergyModel::extendedMonitorSample>(
        "energy.extended_monitor_sample"),
    field<U64, &SimConfig::energy, &EnergyModel::rebootLatency>(
        "energy.reboot_latency"),
    field<F64, &SimConfig::energy, &EnergyModel::rebootEnergy>(
        "energy.reboot_energy"),
    field<F64, &SimConfig::energy, &EnergyModel::compactionEnergy>(
        "energy.compaction_energy"),
    field<F64, &SimConfig::energy, &EnergyModel::traceInterval>(
        "energy.trace_interval"),
    field<Named<TraceKind>, &SimConfig::trace>("trace.kind"),
    field<U64, &SimConfig::traceSeed>("trace.seed"),
    field<F64, &SimConfig::traceScale>("trace.scale"),
    field<U64, &SimConfig::traceIntervals>("trace.intervals"),
    field<Bool, &SimConfig::enableDecay>("decay.enabled"),
    field<U64, &SimConfig::decay, &DecayConfig::decayInterval>(
        "decay.interval"),
    field<Bool, &SimConfig::enablePrefetch>("prefetch.enabled"),
    field<Bool, &SimConfig::infiniteEnergy>("infinite_energy"),
    field<U64, &SimConfig::ioRegionInterval>("io_region.interval"),
    field<U64, &SimConfig::ioRegionLength>("io_region.length"),
    field<Coded<OracleMode::Replay>, &SimConfig::oracle>("oracle.mode"),
};

/** A run of lines sharing a key prefix and an emission guard. */
struct Group
{
    /** Key prefix ("icache" -> "icache.size_bytes"); "" for none. */
    std::string_view prefix;
    std::span<const Field> fields;
    /** The whole run is emitted only when cfg.*guard is set. */
    bool SimConfig::*guard;
};

/**
 * Every line after the workload's, in key order. The l2.* block is
 * emitted only when an L2 is configured, so adding the hierarchy
 * moved no single-level key.
 */
constexpr Group fieldGroups[] = {
    {"icache", cacheFields<&SimConfig::icache>, nullptr},
    {"dcache", cacheFields<&SimConfig::dcache>, nullptr},
    {"l2", l2Enabled, &SimConfig::enableL2},
    {"l2", cacheFields<&SimConfig::l2>, &SimConfig::enableL2},
    {"l2", l2Chain, &SimConfig::enableL2},
    {"", platformFields, nullptr},
};

constexpr Group workloadGroup = {"", workloadFields, nullptr};

void
appendGroup(std::string &out, const SimConfig &cfg, const Group &group)
{
    if (group.guard && !(cfg.*group.guard))
        return;
    for (const Field &f : group.fields) {
        if (f.isDefault && f.isDefault(cfg))
            continue;
        if (!group.prefix.empty()) {
            out += group.prefix;
            out += '.';
        }
        out += f.key;
        out += '=';
        f.print(out, cfg);
        out += '\n';
    }
}

/** Full key -> field, over every group (the parser's vocabulary). */
const std::unordered_map<std::string, const Field *> &
fieldsByKey()
{
    static const auto *map = [] {
        auto *keys = new std::unordered_map<std::string, const Field *>;
        auto add = [keys](const Group &group) {
            for (const Field &f : group.fields) {
                std::string key(group.prefix);
                if (!key.empty())
                    key += '.';
                key += f.key;
                (*keys)[key] = &f;
            }
        };
        add(workloadGroup);
        for (const Group &group : fieldGroups)
            add(group);
        return keys;
    }();
    return *map;
}

} // namespace

std::string
SimConfig::canonicalKey() const
{
    std::string out;
    out.reserve(1536);
    appendGroup(out, *this, workloadGroup);
    // Trace-backed workloads live in a file, not the name: fold the
    // file's content hash (and resolved path) into the key so stale
    // .kagura-cache entries miss when the trace changes. Referencing
    // the trace subsystem here also guarantees its workload resolver
    // is linked into every simulator binary.
    out += trace::traceWorkloadKeyLines(workload);
    for (const Group &group : fieldGroups)
        appendGroup(out, *this, group);
    return out;
}

KeyParseStatus
parseCanonicalKey(std::string_view text, SimConfig &out,
                  std::string &error)
{
    out = SimConfig{};
    // The two trace lines are not fields: canonicalKey() recomputes
    // them from the local file, so the parser keeps them for the
    // trust check below.
    std::string traceHash;
    std::string tracePath;
    const auto &fields = fieldsByKey();

    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos) {
            error = "missing trailing newline";
            return KeyParseStatus::Malformed;
        }
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos || eq == 0) {
            error = "bad line '" + std::string(line) + "'";
            return KeyParseStatus::Malformed;
        }
        const std::string key(line.substr(0, eq));
        const std::string_view value = line.substr(eq + 1);

        if (key == "workload.trace_hash") {
            traceHash = value;
            continue;
        }
        if (key == "workload.trace_path") {
            tracePath = value;
            continue;
        }
        const auto it = fields.find(key);
        if (it == fields.end()) {
            // A newer writer's field this build cannot honour.
            error = "unknown key '" + key + "'";
            return KeyParseStatus::Malformed;
        }
        if (!it->second->parse(out, value)) {
            error = "bad value in '" + std::string(line) + "'";
            return KeyParseStatus::Malformed;
        }
    }
    if (out.workload.empty()) {
        error = "missing workload line";
        return KeyParseStatus::Malformed;
    }

    // Resolve trace-backed workloads against the local filesystem and
    // verify the content hash the key pinned.
    if (!tracePath.empty()) {
        if (!std::filesystem::exists(tracePath)) {
            error = "trace file '" + tracePath + "' not found";
            return KeyParseStatus::TraceMismatch;
        }
        if (!trace::isTraceWorkloadName(out.workload) &&
            !workloadExists(out.workload))
            trace::registerTraceFile(out.workload, tracePath);
        char local[17];
        std::snprintf(local, sizeof(local), "%016" PRIx64,
                      trace::traceFileHash(tracePath));
        if (traceHash != local) {
            error = "trace file '" + tracePath + "' content hash " +
                    local + " != submitted " + traceHash;
            return KeyParseStatus::TraceMismatch;
        }
    } else if (!traceHash.empty()) {
        error = "trace_hash without trace_path";
        return KeyParseStatus::Malformed;
    }
    if (!workloadExists(out.workload)) {
        error = "unknown workload '" + out.workload + "'";
        return KeyParseStatus::Malformed;
    }

    // Lines the table parses but never emits in that form (a default
    // tag_layout, an l2.* line without l2.enabled=1, a non-canonical
    // enum spelling, a missing line) leave a different key: one
    // canonical key per configuration.
    if (out.canonicalKey() != text) {
        error = "canonical key does not round-trip";
        return KeyParseStatus::Malformed;
    }
    return KeyParseStatus::Ok;
}

bool
applyL2Spec(std::string_view spec, SimConfig &cfg, std::string &error)
{
    if (nameMatches(spec, "none")) {
        cfg.enableL2 = false;
        cfg.l2Governor = GovernorKind::None;
        cfg.l2Kagura = false;
        return true;
    }

    // SIZExWAYS[:GOVERNOR[+kagura]]
    std::string_view geometry = spec;
    std::string_view governor;
    const std::size_t colon = spec.find(':');
    if (colon != std::string_view::npos) {
        geometry = spec.substr(0, colon);
        governor = spec.substr(colon + 1);
    }

    const std::size_t x = geometry.find('x');
    unsigned size = 0;
    unsigned ways = 0;
    if (x == std::string_view::npos ||
        !U32::parse(geometry.substr(0, x), size) ||
        !U32::parse(geometry.substr(x + 1), ways) || size == 0 ||
        ways == 0) {
        error = "bad L2 geometry '" + std::string(spec) +
                "' (want none | SIZExWAYS[:GOVERNOR[+kagura]])";
        return false;
    }

    cfg.enableL2 = true;
    cfg.l2.sizeBytes = size;
    cfg.l2.ways = ways;
    cfg.l2Governor = GovernorKind::None;
    cfg.l2Kagura = false;
    if (colon == std::string_view::npos)
        return true;

    bool kagura = false;
    const std::size_t plus = governor.find('+');
    if (plus != std::string_view::npos) {
        if (!nameMatches(governor.substr(plus + 1), "kagura")) {
            error = "bad L2 suffix '" + std::string(spec) +
                    "' (only '+kagura' may follow the governor)";
            return false;
        }
        kagura = true;
        governor = governor.substr(0, plus);
    }
    const auto kind = parseEnum<GovernorKind>(governor);
    if (!kind || *kind == GovernorKind::None) {
        error = "bad L2 governor in '" + std::string(spec) + "'";
        return false;
    }
    cfg.l2Governor = *kind;
    cfg.l2Kagura = kagura;
    return true;
}

} // namespace kagura
