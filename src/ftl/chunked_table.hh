/**
 * @file
 * ChunkedTable<T>: a sparse array over a large, fixed index space.
 *
 * The FTL keeps several tables indexed by logical unit — the mapping
 * table, the durable-trim sequences, recovery's winner-per-unit scan —
 * and a 32 GB device exports ~7.8M units while a trace touches a few
 * thousand of them. A flat array pays for the whole index space at
 * construction; this table pays for what is written (DESIGN.md §17).
 *
 * Layout: a directory of fixed kChunkEntries-entry chunks. Every slot
 * of a fresh table points at one shared, read-only chunk of T{}
 * values, so a read is always two dependent loads with no branch on
 * "is this chunk present" (the directory itself is ~2k pointers and
 * stays cache-resident). The first write into a chunk swaps in an
 * owned copy; reset() releases every owned chunk.
 *
 * T must be trivially copyable (snapshot images are raw bytes) and
 * its value-initialised state is the "untouched" value.
 */

#ifndef EMMCSIM_FTL_CHUNKED_TABLE_HH
#define EMMCSIM_FTL_CHUNKED_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/binio.hh"

namespace emmcsim::ftl {

template <typename T>
class ChunkedTable
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "chunks are saved and loaded as raw bytes");

  public:
    /** log2 of the entries per chunk. */
    static constexpr unsigned kChunkShift = 12;
    static constexpr std::uint64_t kChunkEntries = std::uint64_t{1}
                                                   << kChunkShift;
    static constexpr std::uint64_t kChunkMask = kChunkEntries - 1;

    /** @param size Number of addressable entries. */
    explicit ChunkedTable(std::uint64_t size)
        : size_(size),
          dir_((size + kChunkMask) >> kChunkShift, &emptyChunk()),
          owned_(dir_.size())
    {
    }

    /** Number of addressable entries. */
    std::uint64_t size() const { return size_; }

    /** Chunks holding their own storage. */
    std::size_t ownedChunks() const { return ownedCount_; }

    /** Entry @p i; untouched entries read as T{}. No range check. */
    const T &
    operator[](std::uint64_t i) const
    {
        return dir_[i >> kChunkShift]->v[i & kChunkMask];
    }

    /** Writable entry @p i; the first write to a chunk allocates it. */
    T &
    mut(std::uint64_t i)
    {
        return own(i >> kChunkShift).v[i & kChunkMask];
    }

    /** Release every owned chunk: all entries read T{} again. */
    void
    reset()
    {
        for (std::size_t c = 0; c < dir_.size(); ++c) {
            owned_[c].reset();
            dir_[c] = &emptyChunk();
        }
        ownedCount_ = 0;
    }

    /**
     * Visit every in-range entry of every owned chunk in ascending
     * index order as f(index, entry). Entries of untouched chunks are
     * all T{} and are skipped wholesale.
     */
    template <typename F>
    void
    forEachOwned(F &&f) const
    {
        const_cast<ChunkedTable &>(*this).forEachOwnedMut(
            [&f](std::uint64_t i, T &e) { f(i, static_cast<const T &>(e)); });
    }

    /** forEachOwned with writable entries. */
    template <typename F>
    void
    forEachOwnedMut(F &&f)
    {
        for (std::size_t c = 0; c < dir_.size(); ++c) {
            if (!owned_[c])
                continue;
            const std::uint64_t base = std::uint64_t{c} << kChunkShift;
            const std::uint64_t end = std::min(base + kChunkEntries, size_);
            for (std::uint64_t i = base; i < end; ++i)
                f(i, owned_[c]->v[i - base]);
        }
    }

    /**
     * @name Snapshot image.
     * Owned chunks only: size, chunk count, then (slot, raw chunk)
     * pairs in ascending slot order. @{
     */
    void
    save(core::BinWriter &w) const
    {
        w.u64(size_);
        w.u64(ownedCount_);
        for (std::size_t c = 0; c < dir_.size(); ++c) {
            if (owned_[c]) {
                w.u64(c);
                w.pod(owned_[c]->v);
            }
        }
    }

    /**
     * Replace the contents from @p r. A size mismatch, a chunk count
     * the remaining bytes cannot hold, or slots out of range or not
     * strictly ascending mark the reader failed.
     */
    void
    load(core::BinReader &r)
    {
        reset();
        const std::uint64_t size = r.u64();
        const std::uint64_t count = r.u64();
        if (size != size_ || count > dir_.size() ||
            count > r.remaining() / (sizeof(std::uint64_t) +
                                     sizeof(Chunk::v))) {
            r.fail();
            return;
        }
        std::uint64_t next = 0; // lowest slot the next chunk may use
        for (std::uint64_t k = 0; k < count && r.ok(); ++k) {
            const std::uint64_t c = r.u64();
            if (c < next || c >= dir_.size()) {
                r.fail();
                return;
            }
            next = c + 1;
            r.pod(own(c).v);
        }
    }
    /** @} */

  private:
    struct Chunk
    {
        std::array<T, kChunkEntries> v{};
    };

    /** Chunk of slot @p c, allocated on first use. */
    Chunk &
    own(std::uint64_t c)
    {
        if (!owned_[c]) {
            owned_[c] = std::make_unique<Chunk>();
            dir_[c] = owned_[c].get();
            ++ownedCount_;
        }
        return *owned_[c];
    }

    /** The shared all-T{} chunk every untouched slot points at. */
    static const Chunk &
    emptyChunk()
    {
        static const Chunk empty{};
        return empty;
    }

    std::uint64_t size_;
    /** Read path: owned chunk or the shared empty one, per slot. */
    std::vector<const Chunk *> dir_;
    /** Ownership per slot; null while the slot reads the empty chunk. */
    std::vector<std::unique_ptr<Chunk>> owned_;
    std::size_t ownedCount_ = 0;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_CHUNKED_TABLE_HH
