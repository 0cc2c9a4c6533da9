#include "mem/nvm.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace kagura
{

Nvm::Nvm(NvmType type, std::uint64_t bytes_)
    : tech(type), timing(nvmParams(type, bytes_)), bytes(bytes_),
      pages((bytes_ + pageBytes - 1) / pageBytes)
{
    if (bytes == 0)
        fatal("NVM capacity must be nonzero");
}

template <typename Fn>
void
Nvm::forEachRun(Addr addr, std::size_t count, Fn fn) const
{
    std::uint64_t pos = addr % bytes;
    std::size_t done = 0;
    while (done < count) {
        const std::size_t off = pos % pageBytes;
        const auto run = static_cast<std::size_t>(std::min<std::uint64_t>(
            {count - done, pageBytes - off, bytes - pos}));
        fn(pos / pageBytes, off, run, done);
        done += run;
        pos += run;
        if (pos == bytes)
            pos = 0;
    }
}

void
Nvm::readBytes(Addr addr, std::uint8_t *dst, std::size_t count) const
{
    forEachRun(addr, count,
               [&](std::size_t page, std::size_t off, std::size_t run,
                   std::size_t done) {
                   if (const Page *p = pages[page].get())
                       std::memcpy(dst + done, p->data() + off, run);
                   else
                       std::memset(dst + done, 0, run);
               });
}

void
Nvm::writeBytes(Addr addr, const std::uint8_t *src, std::size_t count)
{
    forEachRun(addr, count,
               [&](std::size_t page, std::size_t off, std::size_t run,
                   std::size_t done) {
                   std::unique_ptr<Page> &p = pages[page];
                   if (!p)
                       p = std::make_unique<Page>(); // zero-filled
                   std::memcpy(p->data() + off, src + done, run);
               });
}

void
Nvm::readBlock(Addr addr, MutByteSpan dst) const
{
    readBytes(addr, dst.data(), dst.size());
}

void
Nvm::fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev, Cycles)
{
    readBlock(base, dst);
    noteBlockRead();
    ++ev.nvmBlockReads;
    ev.latency += timing.readLatency;
}

void
Nvm::absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev, Cycles)
{
    writeBytes(base, src.data(), src.size());
    noteBlockWrite();
    ++ev.nvmBlockWrites;
}

} // namespace kagura
