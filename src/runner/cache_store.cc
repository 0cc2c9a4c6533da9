#include "runner/cache_store.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

#include "common/logging.hh"
#include "runner/config_hash.hh"

namespace kagura
{
namespace runner
{

namespace
{

constexpr char entryMagic[4] = {'K', 'G', 'R', 'C'};
constexpr std::uint32_t entryVersion = 1;
constexpr std::string_view entrySuffix = ".kgr";
constexpr std::size_t hashDigits = 16;
constexpr std::size_t shardDigits = 2;

bool
isLowerHex(std::string_view s)
{
    for (char c : s) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return !s.empty();
}

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

std::uint64_t
getU64(std::string_view bytes, std::size_t pos)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    return v;
}

std::uint32_t
getU32(std::string_view bytes, std::size_t pos)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    return v;
}

/** Whole-file read; false on any I/O trouble. */
bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace

std::string
entryName(std::uint64_t hash)
{
    return detail::vformat("%016llx",
                           static_cast<unsigned long long>(hash)) +
           std::string(entrySuffix);
}

std::string
shardName(std::uint64_t hash)
{
    return entryName(hash).substr(0, shardDigits);
}

bool
isEntryName(std::string_view name)
{
    return name.size() == hashDigits + entrySuffix.size() &&
           name.substr(hashDigits) == entrySuffix &&
           isLowerHex(name.substr(0, hashDigits));
}

int
parseShardName(std::string_view name)
{
    if (name.size() != shardDigits || !isLowerHex(name))
        return -1;
    return std::stoi(std::string(name), nullptr, 16);
}

CacheStore::CacheStore()
{
    const char *mode = std::getenv("KAGURA_CACHE");
    isEnabled = !(mode && std::string_view(mode) == "off");
    const char *env_dir = std::getenv("KAGURA_CACHE_DIR");
    dir = env_dir && env_dir[0] ? env_dir : ".kagura-cache";
}

CacheStore::CacheStore(std::string directory, bool enabled)
    : dir(std::move(directory)), isEnabled(enabled)
{
}

CacheStore &
CacheStore::global()
{
    static CacheStore instance;
    return instance;
}

std::string
CacheStore::entryPath(std::uint64_t hash) const
{
    const std::string name = entryName(hash);
    return dir + "/" + name.substr(0, shardDigits) + "/" + name;
}

bool
CacheStore::ensureShardDir(std::uint64_t hash)
{
    std::error_code ec;
    std::filesystem::create_directories(dir + "/" + shardName(hash), ec);
    return !ec;
}

void
CacheStore::warnOnce(const char *what, const std::string &path)
{
    std::atomic<bool> &flag =
        std::string_view(what) == "corrupt" ? warnedCorrupt : warnedIo;
    if (!flag.exchange(true))
        warn("result cache: %s entry '%s'; treating as a miss "
             "(further occurrences silenced)",
             what, path.c_str());
}

bool
CacheStore::lookup(std::uint64_t hash, std::string_view key_text,
                   std::string &payload_out)
{
    if (!isEnabled)
        return false;
    const std::string path = entryPath(hash);
    std::string blob;
    if (!readFile(path, blob))
        return false; // plain miss: entry does not exist

    // Header: magic, version, key length, payload length.
    constexpr std::size_t header = 4 + 4 + 8 + 8;
    constexpr std::size_t checksum_bytes = 8;
    if (blob.size() < header + checksum_bytes ||
        std::string_view(blob).substr(0, 4) !=
            std::string_view(entryMagic, 4) ||
        getU32(blob, 4) != entryVersion) {
        warnOnce("corrupt", path);
        return false;
    }
    const std::uint64_t key_len = getU64(blob, 8);
    const std::uint64_t payload_len = getU64(blob, 16);
    if (blob.size() != header + key_len + payload_len + checksum_bytes) {
        warnOnce("corrupt", path);
        return false;
    }
    const std::uint64_t stored_sum =
        getU64(blob, blob.size() - checksum_bytes);
    const std::string_view body(blob.data(),
                                blob.size() - checksum_bytes);
    if (fnv1a64(body) != stored_sum) {
        warnOnce("corrupt", path);
        return false;
    }
    // Collision safety: the stored key must match byte for byte.
    if (std::string_view(blob).substr(header, key_len) != key_text)
        return false;
    payload_out = blob.substr(header + key_len, payload_len);
    return true;
}

void
CacheStore::store(std::uint64_t hash, std::string_view key_text,
                  std::string_view payload)
{
    if (!isEnabled)
        return;
    if (!dirReady) {
        std::lock_guard<std::mutex> lock(dirMutex);
        if (!dirReady) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            if (ec) {
                warnOnce("unwritable", dir);
                isEnabled = false;
                return;
            }
            dirReady = true;
        }
    }
    if (!ensureShardDir(hash)) {
        warnOnce("unwritable", entryPath(hash));
        return;
    }

    std::string blob;
    blob.reserve(24 + key_text.size() + payload.size() + 8);
    blob.append(entryMagic, sizeof(entryMagic));
    putU32(blob, entryVersion);
    putU64(blob, key_text.size());
    putU64(blob, payload.size());
    blob += key_text;
    blob += payload;
    putU64(blob, fnv1a64(blob));

    // Write-to-temp + rename keeps readers from seeing partial entries.
    const std::string tmp =
        dir + "/" + std::string(tempPrefix) +
        detail::vformat("%ld-%llu", static_cast<long>(::getpid()),
                        static_cast<unsigned long long>(
                            tempCounter.fetch_add(1)));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warnOnce("unwritable", tmp);
        return;
    }
    const bool wrote =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        warnOnce("unwritable", tmp);
        std::remove(tmp.c_str());
        return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, entryPath(hash), ec);
    if (ec) {
        warnOnce("unwritable", entryPath(hash));
        std::remove(tmp.c_str());
    }
}

} // namespace runner
} // namespace kagura
