/**
 * @file
 * CacheStore maintenance: statistics and garbage collection for the
 * sharded .kagura-cache result store (`kagura_sweep cache stats|gc`),
 * so shared caches stop growing unboundedly. The scan reads the
 * store's layout through the names cache_store.hh defines.
 *
 * GC policy: entries are ranked oldest-first by mtime; `max_age`
 * drops everything older than the cutoff, then `max_bytes` drops the
 * oldest survivors until the store fits. Deletion is unlink-based and
 * therefore atomic-rename-safe: a concurrent writer publishing an
 * entry via temp-file + rename() can never observe a half-deleted
 * file, and a reader that loses the race simply takes a cache miss --
 * the store's normal degradation mode. Stale temp files (from killed
 * writers) older than an hour are swept on every gc pass.
 */

#ifndef KAGURA_RUNNER_CACHE_MAINT_HH
#define KAGURA_RUNNER_CACHE_MAINT_HH

#include <cstdint>
#include <string>

#include "runner/cache_store.hh"

namespace kagura
{
namespace runner
{

/** What `kagura_sweep cache stats` reports. */
struct CacheStatsReport
{
    std::uint64_t entries = 0;
    std::uint64_t totalBytes = 0;
    /**
     * Entries at the store root, left by the pre-sharding flat
     * layout: no lookup reads them, so they are debris; gc trims them
     * like any entry, oldest first.
     */
    std::uint64_t legacyEntries = 0;
    /** Leftover temp files from interrupted writers. */
    std::uint64_t tempFiles = 0;
    /** Shard directories present (<= 256). */
    std::uint32_t shards = 0;
    std::uint64_t minShardEntries = 0;
    std::uint64_t maxShardEntries = 0;

    /**
     * Shard skew: max/mean entries per present shard (1.0 = perfectly
     * even; meaningful once entries >> shards).
     */
    double skew() const;
};

/** Scan @p store's directory (works on a disabled store too). */
CacheStatsReport cacheStats(const CacheStore &store);

/** Knobs for cacheGc(); 0 means "no limit" for either axis. */
struct GcOptions
{
    std::uint64_t maxBytes = 0;  ///< shrink store to at most this
    std::uint64_t maxAgeSeconds = 0; ///< drop entries older than this
};

/** What a gc pass did. */
struct GcReport
{
    std::uint64_t scanned = 0;
    std::uint64_t deleted = 0;
    std::uint64_t deletedBytes = 0;
    std::uint64_t tempFilesRemoved = 0;
    std::uint64_t remainingEntries = 0;
    std::uint64_t remainingBytes = 0;
};

/** Collect garbage per @p options; safe against concurrent writers. */
GcReport cacheGc(const CacheStore &store,
                 const GcOptions &options);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_CACHE_MAINT_HH
