/**
 * @file
 * Tests for the four compression algorithms: exact round-trips over
 * characteristic and adversarial inputs (property-style, parameterised
 * over every algorithm), plus algorithm-specific size expectations.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"

namespace kagura
{
namespace
{

std::vector<std::uint8_t>
patternBlock(const char *kind, std::size_t size, std::uint64_t seed)
{
    std::vector<std::uint8_t> block(size, 0);
    Rng rng(seed);
    if (std::strcmp(kind, "zeros") == 0) {
        // all zero already
    } else if (std::strcmp(kind, "random") == 0) {
        for (auto &b : block)
            b = static_cast<std::uint8_t>(rng.next());
    } else if (std::strcmp(kind, "repeated") == 0) {
        for (std::size_t i = 0; i < size; ++i)
            block[i] = static_cast<std::uint8_t>(
                0xde ^ ((i % 8) * 0x11));
    } else if (std::strcmp(kind, "small_ints") == 0) {
        for (std::size_t i = 0; i + 4 <= size; i += 4) {
            const std::uint32_t v =
                static_cast<std::uint32_t>(rng.below(128));
            std::memcpy(block.data() + i, &v, 4);
        }
    } else if (std::strcmp(kind, "base_delta") == 0) {
        const std::uint32_t base = 0x10203040;
        for (std::size_t i = 0; i + 4 <= size; i += 4) {
            const std::uint32_t v =
                base + static_cast<std::uint32_t>(rng.below(100));
            std::memcpy(block.data() + i, &v, 4);
        }
    } else if (std::strcmp(kind, "text") == 0) {
        for (auto &b : block)
            b = 0x61 + static_cast<std::uint8_t>(rng.below(26));
    } else if (std::strcmp(kind, "sparse") == 0) {
        for (std::size_t i = 0; i < size; i += 7)
            block[i] = static_cast<std::uint8_t>(rng.next());
    } else if (std::strcmp(kind, "negatives") == 0) {
        for (std::size_t i = 0; i + 4 <= size; i += 4) {
            const std::int32_t v =
                -static_cast<std::int32_t>(rng.below(100)) - 1;
            std::memcpy(block.data() + i, &v, 4);
        }
    }
    return block;
}

const char *const patternKinds[] = {"zeros",      "random",   "repeated",
                                    "small_ints", "base_delta", "text",
                                    "sparse",     "negatives"};

class CompressorRoundTrip
    : public testing::TestWithParam<std::tuple<CompressorKind, const char *>>
{
};

TEST_P(CompressorRoundTrip, Exact32ByteBlocks)
{
    const auto [kind, pattern] = GetParam();
    auto comp = makeCompressor(kind);
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const auto block = patternBlock(pattern, 32, seed);
        const CompressionResult result = comp->compress(block);
        const auto restored = comp->decompress(result.payload, 32);
        ASSERT_EQ(restored, block)
            << comp->name() << " pattern=" << pattern
            << " seed=" << seed;
    }
}

TEST_P(CompressorRoundTrip, Exact64ByteBlocks)
{
    const auto [kind, pattern] = GetParam();
    auto comp = makeCompressor(kind);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto block = patternBlock(pattern, 64, seed);
        const CompressionResult result = comp->compress(block);
        const auto restored = comp->decompress(result.payload, 64);
        ASSERT_EQ(restored, block);
    }
}

TEST_P(CompressorRoundTrip, Exact16ByteBlocks)
{
    const auto [kind, pattern] = GetParam();
    auto comp = makeCompressor(kind);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto block = patternBlock(pattern, 16, seed);
        const CompressionResult result = comp->compress(block);
        const auto restored = comp->decompress(result.payload, 16);
        ASSERT_EQ(restored, block);
    }
}

TEST_P(CompressorRoundTrip, CompressedBytesNeverExceedRaw)
{
    const auto [kind, pattern] = GetParam();
    auto comp = makeCompressor(kind);
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const auto block = patternBlock(pattern, 32, seed);
        ASSERT_LE(comp->compressedBytes(block), 32u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllPatterns, CompressorRoundTrip,
    testing::Combine(testing::Values(CompressorKind::Bdi,
                                     CompressorKind::Fpc,
                                     CompressorKind::CPack,
                                     CompressorKind::Dzc,
                                     CompressorKind::Bpc,
                                     CompressorKind::Fvc),
                     testing::ValuesIn(patternKinds)),
    [](const testing::TestParamInfo<CompressorRoundTrip::ParamType>
           &info) {
        std::string name =
            std::string(compressorKindName(std::get<0>(info.param))) +
            "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Bdi, ZeroBlockCompressesToHeader)
{
    auto comp = makeCompressor(CompressorKind::Bdi);
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_LE(comp->compress(zeros).sizeBytes(), 1u);
}

TEST(Bdi, RepeatedValueCompressesToNineBytes)
{
    auto comp = makeCompressor(CompressorKind::Bdi);
    std::vector<std::uint8_t> block(32);
    for (std::size_t i = 0; i < 32; ++i)
        block[i] = static_cast<std::uint8_t>(0x11 * (i % 8));
    // 4-bit header + 64-bit value = 68 bits -> 9 bytes.
    EXPECT_LE(comp->compress(block).sizeBytes(), 9u);
}

TEST(Bdi, NarrowDeltasCompressWell)
{
    auto comp = makeCompressor(CompressorKind::Bdi);
    const auto block = patternBlock("base_delta", 32, 1);
    // base4-delta1: header + 4 B base + 8 x (1 bit + 1 B) = ~13 B.
    EXPECT_LT(comp->compressedBytes(block), 16u);
}

TEST(Bdi, RandomDataStaysRaw)
{
    auto comp = makeCompressor(CompressorKind::Bdi);
    const auto block = patternBlock("random", 32, 2);
    EXPECT_EQ(comp->compressedBytes(block), 32u);
}

// --- BDI closed-form size probe ------------------------------------------
//
// BdiCompressor::sizeBits() decides which base+delta variants fit
// without running the encoder; compress() still runs it, and its bit
// count is the encoder walk's. The two must agree on every block, and
// the payload must round-trip at that size.

void
expectBdiSizeMatchesEncoder(const Compressor &bdi,
                            const std::vector<std::uint8_t> &block,
                            const std::string &what)
{
    PayloadBuffer payload;
    const std::uint64_t encoded = bdi.compress(block, payload);
    EXPECT_EQ(bdi.sizeBits(block), encoded) << what;
    std::vector<std::uint8_t> back(block.size(), 0xcc);
    bdi.decompress(payload.span(), MutByteSpan{back});
    EXPECT_EQ(back, block) << what;
}

void
storeLe(std::vector<std::uint8_t> &block, std::size_t at, std::uint64_t v,
        unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        block[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(Bdi, ClosedFormSizeMatchesTheEncoderOnRandomBlocks)
{
    auto bdi = makeCompressor(CompressorKind::Bdi);
    Rng rng(0xbd1);
    for (std::size_t size : {8u, 12u, 16u, 20u, 24u, 32u, 40u, 64u}) {
        for (unsigned trial = 0; trial < 400; ++trial) {
            std::vector<std::uint8_t> block(size);
            // Mix fully random bytes with narrow random values around
            // a random base, so every variant fits some of the time.
            const unsigned width = 2u << rng.below(3); // 2, 4 or 8
            const std::uint64_t base = rng.next();
            const unsigned spread_bits = 1 + rng.below(40);
            for (std::size_t at = 0; at + width <= size; at += width) {
                const std::uint64_t delta =
                    rng.next() & ((1ULL << spread_bits) - 1);
                std::uint64_t v = rng.chance(0.3) ? delta : base + delta;
                if (rng.chance(0.1))
                    v = rng.next();
                storeLe(block, at, v, width);
            }
            if (trial % 7 == 0)
                for (auto &b : block)
                    b = static_cast<std::uint8_t>(rng.next());
            expectBdiSizeMatchesEncoder(
                *bdi, block,
                "size " + std::to_string(size) + " trial " +
                    std::to_string(trial));
        }
    }
}

TEST(Bdi, ClosedFormSizeMatchesTheEncoderOnStructuredBlocks)
{
    auto bdi = makeCompressor(CompressorKind::Bdi);
    for (std::size_t size : {16u, 32u, 64u}) {
        const std::string at_size = " size " + std::to_string(size);
        expectBdiSizeMatchesEncoder(
            *bdi, std::vector<std::uint8_t>(size, 0), "zeros" + at_size);
        std::vector<std::uint8_t> repeated(size);
        for (std::size_t at = 0; at < size; at += 8)
            storeLe(repeated, at, 0x0123456789abcdefULL, 8);
        expectBdiSizeMatchesEncoder(*bdi, repeated,
                                    "repeated" + at_size);

        // Every (base, delta) variant at its delta limits: deltas of
        // +-2^(8d-1) and one past them, both against the implicit zero
        // base and against an explicit base.
        for (unsigned width : {8u, 4u, 2u}) {
            for (unsigned delta : {1u, 2u, 4u}) {
                if (delta >= width)
                    continue;
                const std::int64_t lim = std::int64_t{1}
                                         << (8 * delta - 1);
                const std::int64_t edges[] = {lim - 1, lim, -lim,
                                              -lim - 1};
                const std::uint64_t base =
                    0x5a5a5a5a5a5a5a5aULL >> (64 - 8 * width);
                for (std::int64_t edge : edges) {
                    for (bool explicit_base : {false, true}) {
                        std::vector<std::uint8_t> block(size);
                        for (std::size_t at = 0, i = 0; at < size;
                             at += width, ++i) {
                            const std::uint64_t origin =
                                explicit_base ? base : 0;
                            // Value 0 is the origin itself (the
                            // explicit base when there is one).
                            const std::int64_t d =
                                i == 0 ? 0
                                : i % 3 == 0
                                    ? edge
                                    : static_cast<std::int64_t>(i);
                            storeLe(block, at,
                                    origin + static_cast<std::uint64_t>(d),
                                    width);
                        }
                        expectBdiSizeMatchesEncoder(
                            *bdi, block,
                            detail::vformat(
                                "B%uD%u edge %lld%s%s", width, delta,
                                static_cast<long long>(edge),
                                explicit_base ? " based" : " zero",
                                at_size.c_str()));
                    }
                }
            }
        }
    }
}

TEST(Fpc, ZeroRunsCollapse)
{
    auto comp = makeCompressor(CompressorKind::Fpc);
    const std::vector<std::uint8_t> zeros(32, 0);
    // 8 zero words -> one zero-run token: 6 bits.
    EXPECT_LE(comp->compress(zeros).sizeBytes(), 1u);
}

TEST(Fpc, SmallIntsUseShortPrefixes)
{
    auto comp = makeCompressor(CompressorKind::Fpc);
    const auto block = patternBlock("small_ints", 32, 3);
    // 8 words x (3-bit prefix + 8-bit payload) = 88 bits = 11 B.
    EXPECT_LE(comp->compressedBytes(block), 11u);
}

TEST(Fpc, NegativeSmallIntsSignExtend)
{
    auto comp = makeCompressor(CompressorKind::Fpc);
    const auto block = patternBlock("negatives", 32, 4);
    EXPECT_LE(comp->compressedBytes(block), 11u);
}

TEST(CPack, DictionaryCatchesRepeats)
{
    auto comp = makeCompressor(CompressorKind::CPack);
    std::vector<std::uint8_t> block(32);
    // Two distinct words alternating: later ones are full dict hits.
    for (std::size_t i = 0; i < 32; i += 4) {
        const std::uint32_t v = (i / 4) % 2 ? 0xcafebabe : 0xdeadbeef;
        std::memcpy(block.data() + i, &v, 4);
    }
    // 2 raw words (34 b each) + 6 full matches (6 b each) ~ 13 B.
    EXPECT_LE(comp->compressedBytes(block), 14u);
}

TEST(CPack, PartialMatchesUseShortCodes)
{
    auto comp = makeCompressor(CompressorKind::CPack);
    std::vector<std::uint8_t> block(32);
    for (std::size_t i = 0; i < 32; i += 4) {
        const std::uint32_t v =
            0xaabbcc00 | static_cast<std::uint32_t>(i);
        std::memcpy(block.data() + i, &v, 4);
    }
    // First word raw, rest are mmmx (upper-3-byte matches).
    EXPECT_LT(comp->compressedBytes(block), 20u);
}

TEST(Dzc, SizeIsZibPlusNonZeroBytes)
{
    auto comp = makeCompressor(CompressorKind::Dzc);
    std::vector<std::uint8_t> block(32, 0);
    block[3] = 7;
    block[21] = 9;
    // 32 ZIB bits + 2 bytes = 4 + 2 = 6 bytes.
    EXPECT_EQ(comp->compress(block).sizeBytes(), 6u);
}

TEST(Dzc, AllNonZeroCostsOneEighthOverhead)
{
    auto comp = makeCompressor(CompressorKind::Dzc);
    const auto block = patternBlock("text", 32, 5);
    EXPECT_EQ(comp->compress(block).sizeBytes(), 36u);
    // compressedBytes clamps to the raw footprint.
    EXPECT_EQ(comp->compressedBytes(block), 32u);
}

TEST(Compressors, CostsMatchTableI)
{
    auto bdi = makeCompressor(CompressorKind::Bdi);
    EXPECT_DOUBLE_EQ(bdi->costs().compressEnergy, 3.84);
    EXPECT_DOUBLE_EQ(bdi->costs().decompressEnergy, 0.65);
}

TEST(Compressors, FactoryProducesDistinctKinds)
{
    for (CompressorKind kind :
         {CompressorKind::Bdi, CompressorKind::Fpc, CompressorKind::CPack,
          CompressorKind::Dzc, CompressorKind::Bpc,
          CompressorKind::Fvc}) {
        auto comp = makeCompressor(kind);
        EXPECT_EQ(comp->kind(), kind);
        EXPECT_STREQ(comp->name(), compressorKindName(kind));
    }
}

TEST(Bpc, SmoothRampCompressesToNearNothing)
{
    // A linear ramp has constant deltas: one non-zero bit-plane pair
    // survives the XOR transform, everything else is zero planes.
    auto comp = makeCompressor(CompressorKind::Bpc);
    std::vector<std::uint8_t> block(32);
    for (std::size_t i = 0; i < 32; i += 4) {
        const std::uint32_t v = 1000 + 3 * static_cast<std::uint32_t>(i);
        std::memcpy(block.data() + i, &v, 4);
    }
    EXPECT_LT(comp->compressedBytes(block), 16u);
}

TEST(Fvc, RepeatedValuesUseDictionaryCodes)
{
    auto comp = makeCompressor(CompressorKind::Fvc);
    std::vector<std::uint8_t> block(32);
    for (std::size_t i = 0; i < 32; i += 4) {
        const std::uint32_t v = (i / 4) % 2 ? 0x11223344 : 0xaabbccdd;
        std::memcpy(block.data() + i, &v, 4);
    }
    // 3b size + 2 x 32b dict + 8 x 3b codes = 91 bits -> 12 bytes.
    EXPECT_LE(comp->compressedBytes(block), 12u);
}

TEST(Fvc, UniqueValuesStayRaw)
{
    auto comp = makeCompressor(CompressorKind::Fvc);
    const auto block = patternBlock("random", 32, 9);
    EXPECT_EQ(comp->compressedBytes(block), 32u);
}

TEST(Compressors, BdiFindsStructureInUnpackedPixels)
{
    // Unpacked 32-bit luminance values near a common base are the
    // canonical BDI payload; FPC also catches them via the 8-bit
    // sign-extended pattern when they are small.
    std::vector<std::uint8_t> block(32);
    for (std::size_t i = 0; i < 32; i += 4) {
        const std::uint32_t v = 100 + static_cast<std::uint32_t>(i / 4);
        std::memcpy(block.data() + i, &v, 4);
    }
    auto bdi = makeCompressor(CompressorKind::Bdi);
    EXPECT_LT(bdi->compressedBytes(block), 16u);
    auto fpc = makeCompressor(CompressorKind::Fpc);
    EXPECT_LT(fpc->compressedBytes(block), 16u);
}

} // namespace
} // namespace kagura
