#include "compress/bdi.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "compress/bitstream.hh"

namespace kagura
{

namespace
{

/** BDI encoding variants, in the order tried. */
enum BdiVariant : unsigned
{
    BdiZeros = 0,  ///< all bytes zero
    BdiRepeat = 1, ///< one 8-byte value repeated
    BdiB8D1 = 2,
    BdiB8D2 = 3,
    BdiB8D4 = 4,
    BdiB4D1 = 5,
    BdiB4D2 = 6,
    BdiB2D1 = 7,
    BdiRaw = 8, ///< incompressible; stored verbatim
};

struct VariantSpec
{
    unsigned baseBytes;
    unsigned deltaBytes;
};

constexpr std::array<VariantSpec, 6> variantSpecs = {{
    {8, 1}, // BdiB8D1
    {8, 2}, // BdiB8D2
    {8, 4}, // BdiB8D4
    {4, 1}, // BdiB4D1
    {4, 2}, // BdiB4D2
    {2, 1}, // BdiB2D1
}};

constexpr unsigned headerBits = 4;

std::uint64_t
loadLittle(const std::uint8_t *src, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return v;
}

void
storeLittle(std::uint8_t *dst, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Load one little-endian @p W-byte value. */
template <unsigned W>
std::uint64_t
loadWord(const std::uint8_t *src)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v = 0;
        std::memcpy(&v, src, W);
        return v;
    } else {
        return loadLittle(src, W);
    }
}

/** The run of variantSpecs entries sharing one base width. */
struct WidthGroup
{
    unsigned baseBytes;
    unsigned first; ///< index of the run's first variant
    unsigned count; ///< number of delta widths in the run
};

constexpr unsigned maxDeltas = 3;

constexpr std::array<WidthGroup, 3> widthGroups = {{
    {8, 0, 3}, // B8D1, B8D2, B8D4
    {4, 3, 2}, // B4D1, B4D2
    {2, 5, 1}, // B2D1
}};

/**
 * One sweep over the @p W-byte values of @p block that decides, for
 * every variant of @p group still marked in @p live, whether it fits
 * (the same test tryVariant applies); @p live is cleared for each
 * variant that does not. Stops as soon as no variant is live.
 */
template <unsigned W>
void
sweepWidth(ConstByteSpan block, const WidthGroup &group,
           std::array<bool, maxDeltas> &live)
{
    std::array<bool, maxDeltas> have_base{};
    std::array<std::uint64_t, maxDeltas> base{};
    unsigned live_count = 0;
    for (unsigned k = 0; k < group.count; ++k)
        live_count += live[k];

    const std::size_t n = block.size() / W;
    for (std::size_t i = 0; i < n && live_count > 0; ++i) {
        const std::uint64_t value = loadWord<W>(block.data() + i * W);
        const std::int64_t as_signed = signExtend(value, 8 * W);
        for (unsigned k = 0; k < group.count; ++k) {
            const unsigned delta_bits =
                8 * variantSpecs[group.first + k].deltaBytes;
            if (!live[k] || fitsSigned(as_signed, delta_bits))
                continue; // fits its delta to the implicit zero base
            if (!have_base[k]) {
                // The first such value becomes the explicit base.
                have_base[k] = true;
                base[k] = value;
            } else if (!fitsSigned(signExtend(value - base[k], 8 * W),
                                   delta_bits)) {
                live[k] = false;
                --live_count;
            }
        }
    }
}

/**
 * Try one (base, delta) variant, streaming the encoding into @p out.
 * Returns false (with @p out partially written -- callers probe with a
 * BitCounter first, so a real writer only ever sees the winner) if any
 * value fits neither its delta to the first non-zero base nor its
 * delta to zero.
 */
template <typename Sink>
bool
tryVariant(ConstByteSpan block, unsigned variant_id,
           const VariantSpec &spec, Sink &out)
{
    const std::size_t n = block.size() / spec.baseBytes;
    if (n * spec.baseBytes != block.size() || n == 0)
        return false;

    const unsigned delta_bits = spec.deltaBytes * 8;

    // Pick the first value not representable against the zero base as
    // the explicit base (the BDI "immediate" scheme). Blocks are at
    // most Block::maxBytes, so at most 32 two-byte values.
    std::uint64_t base = 0;
    bool have_base = false;
    std::array<std::uint64_t, Block::maxBytes / 2> values;
    kagura_assert(n <= values.size());
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = loadLittle(block.data() + i * spec.baseBytes,
                               spec.baseBytes);
        std::int64_t as_signed =
            signExtend(values[i], spec.baseBytes * 8);
        if (!have_base && !fitsSigned(as_signed, delta_bits)) {
            base = values[i];
            have_base = true;
        }
    }

    out.write(variant_id, headerBits);
    out.write(base, spec.baseBytes * 8);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t delta_zero =
            signExtend(values[i], spec.baseBytes * 8);
        const std::int64_t delta_base = static_cast<std::int64_t>(
            values[i] - base);
        // Deltas against the explicit base are taken modulo the base
        // width, so re-narrow before the fit check.
        const std::int64_t delta_base_n =
            signExtend(static_cast<std::uint64_t>(delta_base),
                       spec.baseBytes * 8);
        if (fitsSigned(delta_zero, delta_bits)) {
            out.write(0, 1); // zero base selector
            out.write(static_cast<std::uint64_t>(delta_zero), delta_bits);
        } else if (fitsSigned(delta_base_n, delta_bits)) {
            out.write(1, 1); // explicit base selector
            out.write(static_cast<std::uint64_t>(delta_base_n), delta_bits);
        } else {
            return false;
        }
    }
    return true;
}

template <typename Sink>
void
bdiEncode(ConstByteSpan block, Sink &out)
{
    // All-zero block: header only.
    bool all_zero = true;
    for (std::uint8_t b : block) {
        if (b != 0) {
            all_zero = false;
            break;
        }
    }
    if (all_zero) {
        out.write(BdiZeros, headerBits);
        return;
    }

    // Repeated 8-byte value.
    if (block.size() >= 16 && block.size() % 8 == 0) {
        const std::uint64_t first = loadLittle(block.data(), 8);
        bool repeated = true;
        for (std::size_t i = 8; i < block.size(); i += 8) {
            if (loadLittle(block.data() + i, 8) != first) {
                repeated = false;
                break;
            }
        }
        if (repeated) {
            out.write(BdiRepeat, headerBits);
            out.write(first, 64);
            return;
        }
    }

    // Base+delta variants; probe each with a counting sink and keep
    // the smallest (first wins ties, matching the historical order).
    bool have_best = false;
    unsigned best = 0;
    std::uint64_t best_bits = 0;
    for (unsigned v = 0; v < variantSpecs.size(); ++v) {
        BitCounter probe;
        if (tryVariant(block, BdiB8D1 + v, variantSpecs[v], probe) &&
            (!have_best || probe.bits() < best_bits)) {
            have_best = true;
            best = v;
            best_bits = probe.bits();
        }
    }
    if (have_best) {
        const bool ok =
            tryVariant(block, BdiB8D1 + best, variantSpecs[best], out);
        kagura_assert(ok);
        return;
    }

    // Raw fallback.
    out.write(BdiRaw, headerBits);
    for (std::uint8_t b : block)
        out.write(b, 8);
}

} // namespace

std::uint64_t
BdiCompressor::compress(ConstByteSpan block, PayloadBuffer &out) const
{
    out.clear();
    SpanBitWriter sink(out.scratch());
    bdiEncode(block, sink);
    out.setBits(sink.bits());
    return sink.bits();
}

std::uint64_t
BdiCompressor::sizeBits(ConstByteSpan block) const
{
    // Closed form of bdiEncode's BitCounter walk. Every variant's size
    // is fixed by (base width, delta width, value count), so only
    // whether each variant fits has to be computed: one sweep over the
    // values per base width decides all of that width's delta widths
    // at once (as the BDI hardware runs every base+delta unit in
    // parallel), and the smallest fitting variant wins, the earliest
    // on a tie, exactly as bdiEncode picks.
    const std::size_t size = block.size();
    if (size % 8 == 0) {
        std::uint64_t first = 0;
        bool zero = true;
        bool repeated = true;
        for (std::size_t i = 0; i < size; i += 8) {
            const std::uint64_t word = loadWord<8>(block.data() + i);
            if (i == 0)
                first = word;
            zero = zero && word == 0;
            repeated = repeated && word == first;
        }
        if (zero)
            return headerBits;
        if (repeated && size >= 16)
            return headerBits + 64;
    } else if (std::all_of(block.begin(), block.end(),
                           [](std::uint8_t b) { return b == 0; })) {
        return headerBits;
    }

    // Raw is only the fallback: a fitting variant wins even when it is
    // larger, as it can be for blocks shorter than 16 bytes.
    constexpr std::uint64_t none = ~std::uint64_t{0};
    std::uint64_t best = none;
    for (const WidthGroup &group : widthGroups) {
        const std::size_t n = size / group.baseBytes;
        if (n == 0 || n * group.baseBytes != size)
            continue;
        // Only variants that would beat the best so far are decided;
        // a later variant never wins a tie.
        std::array<std::uint64_t, maxDeltas> bits{};
        std::array<bool, maxDeltas> live{};
        for (unsigned k = 0; k < group.count; ++k) {
            const VariantSpec &spec = variantSpecs[group.first + k];
            bits[k] = headerBits + 8 * spec.baseBytes +
                      n * (1 + 8 * spec.deltaBytes);
            live[k] = bits[k] < best;
        }
        switch (group.baseBytes) {
          case 8:
            sweepWidth<8>(block, group, live);
            break;
          case 4:
            sweepWidth<4>(block, group, live);
            break;
          default:
            sweepWidth<2>(block, group, live);
            break;
        }
        for (unsigned k = 0; k < group.count; ++k) {
            if (live[k] && bits[k] < best)
                best = bits[k];
        }
    }
    return best != none ? best : headerBits + 8 * size;
}

void
BdiCompressor::decompress(ConstByteSpan payload, MutByteSpan block) const
{
    BitReader in(payload);
    const unsigned variant = static_cast<unsigned>(in.read(headerBits));
    std::memset(block.data(), 0, block.size());

    if (variant == BdiZeros)
        return;

    if (variant == BdiRepeat) {
        const std::uint64_t value = in.read(64);
        for (std::size_t i = 0; i + 8 <= block.size(); i += 8)
            storeLittle(block.data() + i, value, 8);
        return;
    }

    if (variant == BdiRaw) {
        for (std::size_t i = 0; i < block.size(); ++i)
            block[i] = static_cast<std::uint8_t>(in.read(8));
        return;
    }

    kagura_assert(variant >= BdiB8D1 && variant <= BdiB2D1);
    const VariantSpec &spec = variantSpecs[variant - BdiB8D1];
    const std::uint64_t base = in.read(spec.baseBytes * 8);
    const std::size_t n = block.size() / spec.baseBytes;
    for (std::size_t i = 0; i < n; ++i) {
        const bool use_base = in.read(1) != 0;
        const std::uint64_t delta_raw = in.read(spec.deltaBytes * 8);
        const std::int64_t delta = signExtend(delta_raw,
                                              spec.deltaBytes * 8);
        const std::uint64_t value =
            (use_base ? base : 0) + static_cast<std::uint64_t>(delta);
        storeLittle(block.data() + i * spec.baseBytes, value,
                    spec.baseBytes);
    }
}

} // namespace kagura
