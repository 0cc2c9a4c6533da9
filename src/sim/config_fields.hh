/**
 * @file
 * The SimConfig field table and the config enums' name parsers.
 *
 * Every canonical-key line is described once, in one ordered table
 * in config_fields.cc: its key, the SimConfig field it reads, its
 * value kind (u32, u64, %.17g double, 0/1 bool, integer-coded enum
 * or named enum) and whether it is emitted only when it differs from
 * the default. SimConfig::canonicalKey() and parseCanonicalKey() both
 * walk that table, so the round-trip law
 *
 *     parse(c.canonicalKey()).canonicalKey() == c.canonicalKey()
 *
 * holds by construction. The same key text names result-cache
 * entries and carries a SimConfig over kagura.sweep/v1.
 *
 * Each named config enum has exactly one name parser, parseEnum<E>():
 * a case-insensitive match against the enum's *Name() string that
 * also ignores '-'. Every front end (kagura_sim, kagura_sweep grid,
 * capture_goldens) and the key parser call it.
 */

#ifndef KAGURA_SIM_CONFIG_FIELDS_HH
#define KAGURA_SIM_CONFIG_FIELDS_HH

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "sim/sim_config.hh"

namespace kagura
{

/**
 * Values and names of one config enum: values() (every value, in
 * enum order) and name(). A specialisation may add aliases, spellings
 * a front end accepted before it parsed through parseEnum().
 */
template <typename E>
struct EnumNames;

/** EnumNames for a contiguous enum ending at @p Last, named by @p Name. */
template <auto Name, auto Last>
struct EnumList
{
    using Enum = decltype(Last);

    static constexpr std::array<Enum, static_cast<std::size_t>(Last) + 1>
    values()
    {
        std::array<Enum, static_cast<std::size_t>(Last) + 1> all{};
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = static_cast<Enum>(i);
        return all;
    }

    static const char *name(Enum value) { return Name(value); }
};

// Last must stay each enum's final value.
template <>
struct EnumNames<GovernorKind> : EnumList<governorKindName, GovernorKind::Acc>
{};
template <>
struct EnumNames<CompressorKind>
    : EnumList<compressorKindName, CompressorKind::Fvc>
{};
template <>
struct EnumNames<EhsKind> : EnumList<ehsKindName, EhsKind::SpecPersist>
{
    /** kagura_sim's short spelling of NVSRAMCache. */
    static constexpr std::pair<const char *, EhsKind> aliases[] = {
        {"nvsram", EhsKind::NvsramCache}};
};
template <>
struct EnumNames<NvmType> : EnumList<nvmTypeName, NvmType::SttRam>
{};
template <>
struct EnumNames<TraceKind> : EnumList<traceKindName, TraceKind::Constant>
{};
template <>
struct EnumNames<ReplKind> : EnumList<replacementPolicyName, ReplKind::Dish>
{};
template <>
struct EnumNames<TagLayoutKind>
    : EnumList<tagLayoutName, TagLayoutKind::Signature>
{};
template <>
struct EnumNames<AdaptScheme> : EnumList<adaptSchemeName, AdaptScheme::Mimd>
{};
template <>
struct EnumNames<TriggerKind>
    : EnumList<triggerKindName, TriggerKind::Voltage>
{};

/** True when @p text spells @p name, ignoring case and '-'. */
bool nameMatches(std::string_view text, std::string_view name);

/** The one name parser of config enum @p E (nullopt when unknown). */
template <typename E>
std::optional<E>
parseEnum(std::string_view text)
{
    for (E value : EnumNames<E>::values()) {
        if (nameMatches(text, EnumNames<E>::name(value)))
            return value;
    }
    if constexpr (requires { EnumNames<E>::aliases; }) {
        for (const auto &[alias, value] : EnumNames<E>::aliases) {
            if (nameMatches(text, alias))
                return value;
        }
    }
    return std::nullopt;
}

/** "a | b | c": @p E's names in lower case, for usage text. */
template <typename E>
std::string
enumChoices()
{
    std::string out;
    for (E value : EnumNames<E>::values()) {
        if (!out.empty())
            out += " | ";
        for (const char *c = EnumNames<E>::name(value); *c; ++c)
            out += static_cast<char>(
                *c >= 'A' && *c <= 'Z' ? *c - 'A' + 'a' : *c);
    }
    return out;
}

/** Why a canonical key failed to parse. */
enum class KeyParseStatus
{
    Ok,
    Malformed,     ///< bad line syntax, unknown key, bad value
    TraceMismatch, ///< trace file missing or content hash differs
};

/**
 * Rebuild @p out from canonical-key text. On failure returns the
 * status and describes the offending line in @p error.
 *
 * Trace-backed workloads: the key's `workload.trace_hash` and
 * `workload.trace_path` lines are not fields. The parser resolves
 * the workload locally (registering the alias from the path when
 * needed) and verifies the local file's content hash against the
 * key's; a mismatch is TraceMismatch, because simulating a different
 * trace under the same key would break result-cache soundness.
 */
KeyParseStatus parseCanonicalKey(std::string_view text, SimConfig &out,
                                 std::string &error);

/**
 * Apply a shared-L2 level spec, the axis grammar of
 * `kagura_sweep grid --l2` and `kagura_sim --l2`:
 *
 *     none | SIZExWAYS[:GOVERNOR[+kagura]]
 *
 * e.g. "1024x4", "1024x4:acc", "1024x4:acc+kagura". "none" keeps the
 * config single-level. Returns false (and describes the problem in
 * @p error) on a malformed spec -- callers fail typed, never fall
 * back silently.
 */
bool applyL2Spec(std::string_view spec, SimConfig &cfg,
                 std::string &error);

} // namespace kagura

#endif // KAGURA_SIM_CONFIG_FIELDS_HH
