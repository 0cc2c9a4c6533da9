#include "runner/result_codec.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

namespace kagura
{
namespace runner
{

namespace
{

constexpr char magic[4] = {'K', 'G', 'R', 'B'};

// ---- encoding ------------------------------------------------------

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

// ---- decoding ------------------------------------------------------

/** Bounds-checked sequential reader over the payload. */
struct Reader
{
    std::string_view bytes;
    std::size_t pos = 0;
    bool ok = true;

    bool
    take(void *dst, std::size_t n)
    {
        if (!ok || bytes.size() - pos < n) {
            ok = false;
            return false;
        }
        std::memcpy(dst, bytes.data() + pos, n);
        pos += n;
        return true;
    }

    std::uint32_t
    u32()
    {
        unsigned char raw[4] = {};
        if (!take(raw, sizeof(raw)))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        unsigned char raw[8] = {};
        if (!take(raw, sizeof(raw)))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!ok || bytes.size() - pos < len) {
            ok = false;
            return {};
        }
        std::string s(bytes.substr(pos, len));
        pos += len;
        return s;
    }
};

/** Pointers to a section's counter words, in codec order. */
using Words = std::vector<std::uint64_t *>;

template <typename S, std::size_t N>
void
collect(Words &words, const metrics::CounterField<S> (&fields)[N], S &s)
{
    metrics::forEachWord(fields, s,
                         [&words](std::uint64_t &w) { words.push_back(&w); });
}

/**
 * The optional sections that trail the oracle log, in emission order.
 * Each is present iff it has content, which keeps every encoding from
 * before the section existed byte-identical:
 *
 *  - id 0 is the untagged OPTgen section, present iff its first word
 *    (replOptAccesses) is nonzero. Online policies never set it.
 *  - Every other section is tagged: a u64 0 marker (never a valid
 *    first OPTgen word), its u32 id, then its words. It is present
 *    iff any of its words is nonzero. Ids strictly ascend.
 */
struct Section
{
    std::uint32_t id;
    void (*words)(Words &out, SimResult &r);
};

constexpr Section sections[] = {
    {0, [](Words &w, SimResult &r) { collect(w, replOptFields, r); }},
    // Tag-layout telemetry: all-zero under the baseline layout.
    {1, [](Words &w, SimResult &r) {
         collect(w, tags::tagLayoutStatsFields, r.icacheTags);
         collect(w, tags::tagLayoutStatsFields, r.dcacheTags);
     }},
    // Shared-L2 telemetry: all-zero for single-level configs.
    {2, [](Words &w, SimResult &r) {
         collect(w, cacheStatsFields, r.l2cache);
         collect(w, tags::tagLayoutStatsFields, r.l2cacheTags);
     }},
};

bool
present(const Section &section, const Words &words)
{
    if (section.id == 0)
        return *words.front() != 0;
    return std::any_of(words.begin(), words.end(),
                       [](const std::uint64_t *word) { return *word; });
}

} // namespace

std::string
encodeResult(const SimResult &r)
{
    std::string out;
    out.reserve(512 + 32 * r.cycles.size());
    out.append(magic, sizeof(magic));
    putU32(out, resultFormatVersion);

    const auto put = [&out](std::uint64_t word) { putU64(out, word); };
    putString(out, r.workload);
    metrics::forEachWord(simResultHeaderFields, r, put);

    putU64(out, r.cycles.size());
    for (const PowerCycleRecord &rec : r.cycles)
        metrics::forEachWord(powerCycleFields, rec, put);

    metrics::forEachWord(cacheStatsFields, r.icache, put);
    metrics::forEachWord(cacheStatsFields, r.dcache, put);

    putU32(out, static_cast<std::uint32_t>(EnergyLedger::numCategories));
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
        putDouble(out, r.ledger.total(static_cast<EnergyCategory>(c)));

    metrics::forEachWord(kaguraStatsFields, r.kagura, put);
    putU64(out, r.oracleVetoes);

    // Oracle log, sorted by address for a canonical byte stream.
    struct Entry
    {
        Addr addr;
        std::uint32_t beneficial;
        std::uint32_t useless;
    };
    std::vector<Entry> entries;
    entries.reserve(r.oracle.size());
    r.oracle.forEachTally(
        [&entries](Addr addr, std::uint32_t beneficial,
                   std::uint32_t useless) {
            entries.push_back({addr, beneficial, useless});
        });
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.addr < b.addr;
              });
    putU64(out, entries.size());
    for (const Entry &e : entries) {
        putU64(out, e.addr);
        putU32(out, e.beneficial);
        putU32(out, e.useless);
    }

    Words words;
    for (const Section &section : sections) {
        words.clear();
        // Only read here; the decoder writes through the same walk.
        section.words(words, const_cast<SimResult &>(r));
        if (!present(section, words))
            continue;
        if (section.id != 0) {
            putU64(out, 0);
            putU32(out, section.id);
        }
        for (const std::uint64_t *word : words)
            putU64(out, *word);
    }
    return out;
}

bool
decodeResult(std::string_view bytes, SimResult &out)
{
    Reader in{bytes};
    char m[4] = {};
    if (!in.take(m, sizeof(m)) || std::memcmp(m, magic, sizeof(m)) != 0)
        return false;
    if (in.u32() != resultFormatVersion)
        return false;

    SimResult r;
    const auto read = [&in](std::uint64_t &word) { word = in.u64(); };
    r.workload = in.str();
    metrics::forEachWord(simResultHeaderFields, r, read);

    const std::uint64_t cycle_count = in.u64();
    // Sanity bound: each record needs 32 bytes of payload.
    if (!in.ok || cycle_count > bytes.size() / 32 + 1)
        return false;
    r.cycles.resize(cycle_count);
    for (PowerCycleRecord &rec : r.cycles)
        metrics::forEachWord(powerCycleFields, rec, read);

    metrics::forEachWord(cacheStatsFields, r.icache, read);
    metrics::forEachWord(cacheStatsFields, r.dcache, read);

    if (in.u32() != EnergyLedger::numCategories)
        return false;
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
        r.ledger.add(static_cast<EnergyCategory>(c), in.f64());

    metrics::forEachWord(kaguraStatsFields, r.kagura, read);
    r.oracleVetoes = in.u64();

    const std::uint64_t tally_count = in.u64();
    if (!in.ok || tally_count > bytes.size() / 16 + 1)
        return false;
    for (std::uint64_t i = 0; i < tally_count; ++i) {
        const Addr addr = in.u64();
        const std::uint32_t beneficial = in.u32();
        const std::uint32_t useless = in.u32();
        if (!in.ok)
            return false;
        r.oracle.addTally(addr, beneficial, useless);
    }

    // Optional trailing sections, walked in table order. The first
    // remaining word disambiguates the untagged section: nonzero is
    // its first word, zero is the marker of a tagged one.
    Words words;
    const Section *next = std::begin(sections);
    while (in.ok && in.pos != bytes.size()) {
        const std::size_t start = in.pos;
        const bool tagged = in.u64() == 0;
        const std::uint32_t id = tagged ? in.u32() : 0;
        if (!tagged)
            in.pos = start; // the untagged section's first word
        while (next != std::end(sections) && next->id < id)
            ++next;
        if (!in.ok || next == std::end(sections) || next->id != id ||
            (tagged && id == 0))
            return false;
        words.clear();
        next->words(words, r);
        for (std::uint64_t *word : words)
            *word = in.u64();
        // Canonical form: a section is present iff it has content.
        if (!present(*next, words))
            return false;
        ++next;
    }

    // A well-formed payload is consumed exactly.
    if (!in.ok || in.pos != bytes.size())
        return false;
    out = std::move(r);
    return true;
}

} // namespace runner
} // namespace kagura
