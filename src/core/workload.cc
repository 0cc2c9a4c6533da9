#include "core/workload.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/rng.hh"

#include "common/logging.hh"
#include "mem/nvm.hh"

namespace kagura
{

Workload::Workload(std::string name, std::vector<MicroOp> ops,
                   std::map<Addr, std::uint8_t> image_)
    : label(std::move(name)), stream(std::move(ops)),
      image(std::move(image_))
{
}

void
Workload::applyImage(Nvm &nvm) const
{
    // Coalesce consecutive addresses into one writeBytes per run.
    std::array<std::uint8_t, 512> run{};
    Addr start = 0;
    std::size_t len = 0;
    for (const auto &[addr, byte] : image) {
        if (len > 0 && (addr != start + len || len == run.size())) {
            nvm.writeBytes(start, run.data(), len);
            len = 0;
        }
        if (len == 0)
            start = addr;
        run[len++] = byte;
    }
    if (len > 0)
        nvm.writeBytes(start, run.data(), len);
}

std::uint64_t
Workload::committedInstructions() const
{
    std::uint64_t total = 0;
    for (const MicroOp &op : stream)
        total += op.type == MicroOp::Type::Alu ? op.count : 1;
    return total;
}

std::uint64_t
Workload::memoryOps() const
{
    std::uint64_t total = 0;
    for (const MicroOp &op : stream) {
        if (op.type != MicroOp::Type::Alu)
            ++total;
    }
    return total;
}

double
Workload::arithmeticIntensity() const
{
    const std::uint64_t mem = memoryOps();
    const std::uint64_t arith = committedInstructions() - mem;
    return mem ? static_cast<double>(arith) / static_cast<double>(mem)
               : static_cast<double>(arith);
}

std::uint64_t
Workload::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    fold(stream.size(), 8);
    for (const MicroOp &op : stream) {
        fold(static_cast<std::uint64_t>(op.type), 1);
        fold(op.size, 1);
        fold(op.count, 2);
        fold(op.pc, 8);
        fold(op.addr, 8);
        fold(op.value, 8);
    }
    fold(image.size(), 8);
    for (const auto &[addr, byte] : image) {
        fold(addr, 8);
        fold(byte, 1);
    }
    return h;
}

TraceRecorder::TraceRecorder(Addr code_base, Addr data_base)
    : pc(code_base), codeBase(code_base), dataCursor(data_base)
{
}

void
TraceRecorder::alu(unsigned count)
{
    kagura_assert(count > 0);
    // Fuse into the previous ALU group when it is contiguous, capping
    // the group so PC arithmetic stays exact.
    while (count > 0) {
        const unsigned batch = std::min<unsigned>(count, 4096);
        MicroOp op;
        op.type = MicroOp::Type::Alu;
        op.count = static_cast<std::uint16_t>(batch);
        op.pc = pc;
        stream.push_back(op);
        pc += 4ULL * batch;
        count -= batch;
    }
}

std::uint64_t
TraceRecorder::load(Addr addr, unsigned size)
{
    kagura_assert(size >= 1 && size <= 8);
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = static_cast<std::uint8_t>(size);
    op.pc = pc;
    op.addr = addr;
    stream.push_back(op);
    pc += 4;
    return peek(addr, size);
}

void
TraceRecorder::store(Addr addr, std::uint64_t value, unsigned size)
{
    kagura_assert(size >= 1 && size <= 8);
    MicroOp op;
    op.type = MicroOp::Type::Store;
    op.size = static_cast<std::uint8_t>(size);
    op.pc = pc;
    op.addr = addr;
    op.value = value;
    stream.push_back(op);
    pc += 4;
    std::array<std::uint8_t, 8> bytes{};
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    writeMemory(addr, bytes.data(), size);
}

void
TraceRecorder::beginLoop()
{
    loops.push_back({pc, pc});
}

void
TraceRecorder::endIteration()
{
    kagura_assert(!loops.empty());
    LoopFrame &frame = loops.back();
    frame.maxEnd = std::max(frame.maxEnd, pc);
    pc = frame.start;
}

void
TraceRecorder::endLoop()
{
    kagura_assert(!loops.empty());
    LoopFrame frame = loops.back();
    loops.pop_back();
    pc = std::max(frame.maxEnd, pc) + 4;
}

void
TraceRecorder::initData(Addr addr, const void *bytes, std::size_t count)
{
    const auto *src = static_cast<const std::uint8_t *>(bytes);
    writeMemory(addr, src, count);
    writeImage(addr, src, count);
}

void
TraceRecorder::initValue(Addr addr, std::uint64_t value, unsigned size)
{
    kagura_assert(size <= 8);
    std::array<std::uint8_t, 8> bytes{};
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    writeMemory(addr, bytes.data(), size);
    writeImage(addr, bytes.data(), size);
}

std::uint64_t
TraceRecorder::peek(Addr addr, unsigned size) const
{
    kagura_assert(size <= 8);
    std::uint64_t value = 0;
    unsigned i = 0;
    while (i < size) {
        const Addr a = addr + i;
        const std::size_t off = a % pageBytes;
        const unsigned run = static_cast<unsigned>(
            std::min<std::size_t>(size - i, pageBytes - off));
        if (const Page *page = findPage(a)) {
            for (unsigned j = 0; j < run; ++j)
                value |= static_cast<std::uint64_t>((*page)[off + j])
                         << (8 * (i + j));
        }
        i += run;
    }
    return value;
}

Addr
TraceRecorder::allocate(std::size_t bytes)
{
    const Addr base = dataCursor;
    dataCursor += (bytes + 7) / 8 * 8;
    return base;
}

Workload
TraceRecorder::finish(std::string name)
{
    kagura_assert(loops.empty());

    // Fill the executed code range with synthetic instruction bytes so
    // the ICache sees realistic compressibility: embedded code mixes
    // dense 32-bit encodings (incompressible) with 16-bit/immediate-
    // heavy words (upper halfword zero -- FPC/BDI-friendly), roughly
    // 40/60. Without this the code region would read as all-zero NVM
    // and compress to nothing, wildly overstating ICache compression.
    Addr max_pc = pc;
    for (const MicroOp &op : stream) {
        const Addr end =
            op.pc + 4ULL * (op.type == MicroOp::Type::Alu ? op.count : 1);
        max_pc = std::max(max_pc, end);
    }
    // Addresses ascend, so one iterator walks the image alongside.
    auto it = image.lower_bound(codeBase);
    for (Addr word = codeBase; word < max_pc + 4; word += 4) {
        std::uint64_t h = word;
        std::uint32_t enc = static_cast<std::uint32_t>(splitMix64(h));
        if (enc % 100 < 60)
            enc &= 0xffffu; // 16-bit encoding padded to a word
        for (unsigned i = 0; i < 4; ++i) {
            const Addr a = word + i;
            while (it != image.end() && it->first < a)
                ++it;
            if (it == image.end() || it->first != a)
                it = image.emplace_hint(
                    it, a, static_cast<std::uint8_t>(enc >> (8 * i)));
        }
    }
    return Workload(std::move(name), std::move(stream), std::move(image));
}

TraceRecorder::Page &
TraceRecorder::pageFor(Addr addr)
{
    const Addr page_no = addr / pageBytes;
    if (page_no != writePageNo) {
        // try_emplace value-initialises a new page (all zero bytes).
        writePage = &memory.try_emplace(page_no).first->second;
        writePageNo = page_no;
    }
    return *writePage;
}

const TraceRecorder::Page *
TraceRecorder::findPage(Addr addr) const
{
    const Addr page_no = addr / pageBytes;
    if (page_no != readPageNo) {
        const auto it = memory.find(page_no);
        if (it == memory.end())
            return nullptr;
        readPage = &it->second;
        readPageNo = page_no;
    }
    return readPage;
}

void
TraceRecorder::writeMemory(Addr addr, const std::uint8_t *src,
                           std::size_t count)
{
    while (count > 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t run = std::min(count, pageBytes - off);
        std::memcpy(pageFor(addr).data() + off, src, run);
        addr += run;
        src += run;
        count -= run;
    }
}

void
TraceRecorder::writeImage(Addr addr, const std::uint8_t *src,
                          std::size_t count)
{
    // Consecutive bytes land right after each other, so each insert is
    // hinted with the position after the previous one.
    auto hint = image.lower_bound(addr);
    for (std::size_t i = 0; i < count; ++i) {
        hint = image.insert_or_assign(hint, addr + i, src[i]);
        ++hint;
    }
}

const Workload &
cachedWorkload(const std::string &name)
{
    // Process-wide mutable state: the memo map is shared by every
    // Simulator, including concurrent runner workers. The mutex
    // serialises lookup/insert; unordered_map never invalidates
    // references on insert, so the returned Workload stays valid (and
    // is only ever read) after the lock is released.
    static std::mutex mutex;
    static std::unordered_map<std::string, Workload> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, makeWorkload(name)).first;
    return it->second;
}

} // namespace kagura
