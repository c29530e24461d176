/**
 * @file
 * PageMap: logical-to-physical mapping at 4KB-unit granularity.
 *
 * Every logical page number (LPN, one 4KB unit) maps to a physical
 * location (plane, pool, physical page, unit-within-page). Multi-unit
 * physical pages (8KB) hold two adjacent mapping entries pointing at
 * the same page with different unit slots, which is the essence of the
 * HPS design: the map does not force page size to be uniform.
 *
 * The table is a ChunkedTable (DESIGN.md §17): it costs a ~2k-slot
 * directory at construction and one 64 KiB chunk per 4096-unit range
 * that has ever been written, so a fresh 32 GB device builds in
 * microseconds and memory tracks the written footprint.
 */

#ifndef EMMCSIM_FTL_MAPPING_HH
#define EMMCSIM_FTL_MAPPING_HH

#include <cstdint>

#include "flash/pool.hh"
#include "ftl/chunked_table.hh"

namespace emmcsim::ftl {

/** Physical location of one logical 4KB unit. */
struct MapEntry
{
    std::int32_t planeLinear = -1; ///< -1 when unmapped
    std::uint16_t pool = 0;
    std::uint16_t unit = 0;        ///< 4KB slot within the page
    flash::Ppn ppn{0};

    bool mapped() const { return planeLinear >= 0; }
    bool operator==(const MapEntry &o) const = default;
};

/** Sparse LPN -> MapEntry table. */
class PageMap
{
  public:
    /** @param logical_units Number of exported 4KB logical units. */
    explicit PageMap(std::uint64_t logical_units);

    /** Number of exported logical units. */
    std::uint64_t logicalUnits() const { return entries_.size(); }

    /** Chunks that hold their own storage (the written footprint). */
    std::size_t ownedChunks() const { return entries_.ownedChunks(); }

    /** @return true when @p lpn has a physical location. */
    bool mapped(flash::Lpn lpn) const;

    /** Current location of @p lpn (entry.mapped() may be false). */
    const MapEntry &lookup(flash::Lpn lpn) const;

    /** Point @p lpn at a new physical location. */
    void set(flash::Lpn lpn, const MapEntry &e);

    /** Drop the mapping for @p lpn (trim/discard). */
    void clear(flash::Lpn lpn);

    /** Count of currently mapped units. */
    std::uint64_t mappedCount() const { return mappedCount_; }

    /**
     * Drop every mapping. Power-fail recovery rebuilds the table from
     * scratch out of the flash OOB scan (DESIGN.md §13); the pre-crash
     * RAM copy is exactly what did not survive.
     */
    void reset();

    /**
     * Visit every entry of every chunk written since construction or
     * the last reset(), ascending, as f(lpn, entry). Every other entry
     * is unmapped; the audit walks this, not the whole logical space.
     */
    template <typename F>
    void
    forEachOwned(F &&f) const
    {
        entries_.forEachOwned([&f](std::uint64_t i, const MapEntry &e) {
            f(flash::Lpn{static_cast<std::int64_t>(i)}, e);
        });
    }

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;

    /**
     * Restore from @p r. The mapped count is recounted from the loaded
     * entries; a stored count that disagrees marks the reader failed.
     */
    void load(core::BinReader &r);
    /** @} */

  private:
    void checkRange(flash::Lpn lpn) const;

    ChunkedTable<MapEntry> entries_;
    std::uint64_t mappedCount_ = 0;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_MAPPING_HH
