#include "flash/pool.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace emmcsim::flash {

BlockPool::PageSlab::PageSlab(std::uint32_t pages,
                              std::uint32_t units_per_page)
    : lpns(static_cast<std::size_t>(pages) * units_per_page, kNoLpn),
      valid(pages, 0),
      seq(pages, 0)
{
}

void
BlockPool::PageSlab::clear()
{
    std::fill(lpns.begin(), lpns.end(), kNoLpn);
    std::fill(valid.begin(), valid.end(), std::uint8_t{0});
    std::fill(seq.begin(), seq.end(), std::uint64_t{0});
}

BlockPool::BlockPool(const PoolConfig &cfg, std::uint32_t pages_per_block)
    : pageBytes_(cfg.pageBytes),
      unitsPerPage_(cfg.unitsPerPage()),
      blocks_(cfg.blocksPerPlane),
      pagesPerBlock_(pages_per_block),
      pageShift_(static_cast<std::uint32_t>(
          std::countr_zero(pages_per_block))),
      pageMask_(pages_per_block - 1u)
{
    EMMCSIM_ASSERT(unitsPerPage_ >= 1 && unitsPerPage_ <= kMaxUnitsPerPage,
                   "units per page out of supported range");
    EMMCSIM_ASSERT(std::has_single_bit(pagesPerBlock_),
                   "pages per block must be a power of two");
    erased_ = std::make_unique<const PageSlab>(pagesPerBlock_,
                                               unitsPerPage_);
    slabs_.resize(blocks_);
    view_.assign(blocks_, erased_.get());
    writePtr_.assign(blocks_, 0);
    blockValid_.assign(blocks_, 0);
    eraseCnt_.assign(blocks_, 0);
    lastWriteSeq_.assign(blocks_, 0);
    isFree_.assign(blocks_, true);
    suspect_.assign(blocks_, false);
    retired_.assign(blocks_, false);
    freeCount_ = blocks_;
}

void
BlockPool::attachSlab(std::uint32_t b)
{
    EMMCSIM_ASSERT(!slabs_[b], "block already owns a slab");
    if (spare_.empty()) {
        slabs_[b] = std::make_unique<PageSlab>(pagesPerBlock_,
                                               unitsPerPage_);
    } else {
        slabs_[b] = std::move(spare_.back());
        spare_.pop_back();
    }
    view_[b] = slabs_[b].get();
}

void
BlockPool::releaseSlab(std::uint32_t b)
{
    EMMCSIM_ASSERT(slabs_[b], "releasing a block without a slab");
    slabs_[b]->clear();
    spare_.push_back(std::move(slabs_[b]));
    view_[b] = erased_.get();
}

BlockPool::PageSlab &
BlockPool::ownedSlabOf(Ppn ppn)
{
    PageSlab *slab = slabs_[blockOf(ppn)].get();
    EMMCSIM_ASSERT(slab != nullptr,
                   "page state written on a block that is not open");
    return *slab;
}

std::uint64_t
BlockPool::pageCount() const
{
    return static_cast<std::uint64_t>(blocks_) * pagesPerBlock_;
}

bool
BlockPool::hasFreePage() const
{
    if (active_ >= 0 && writePtr_[active_] < pagesPerBlock_)
        return true;
    return freeCount_ > 0;
}

std::uint64_t
BlockPool::freePageCount() const
{
    std::uint64_t n = static_cast<std::uint64_t>(freeCount_) *
                      pagesPerBlock_;
    if (active_ >= 0)
        n += pagesPerBlock_ - writePtr_[active_];
    return n;
}

std::uint32_t
BlockPool::takeFreeBlock()
{
    EMMCSIM_ASSERT(freeCount_ > 0, "takeFreeBlock on empty free list");
    std::uint32_t best = 0;
    std::uint32_t best_erase = std::numeric_limits<std::uint32_t>::max();
    bool found = false;
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        if (isFree_[b] && eraseCnt_[b] < best_erase) {
            best = b;
            best_erase = eraseCnt_[b];
            found = true;
        }
    }
    EMMCSIM_ASSERT(found, "free count disagrees with free flags");
    isFree_[best] = false;
    --freeCount_;
    attachSlab(best);
    return best;
}

Ppn
BlockPool::allocatePage()
{
    if (active_ < 0 || writePtr_[active_] >= pagesPerBlock_) {
        EMMCSIM_ASSERT(freeCount_ > 0,
                       "allocatePage with no free blocks; GC required");
        active_ = static_cast<std::int32_t>(takeFreeBlock());
    }
    std::uint32_t page = writePtr_[active_]++;
    ++programmed_;
    lastWriteSeq_[active_] = ++allocSeq_;
    return units::blockFirstPage(
               BlockId{static_cast<std::uint32_t>(active_)},
               pagesPerBlock_) +
           page;
}

void
BlockPool::setUnit(Ppn ppn, std::uint32_t slot, Lpn lpn)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "setUnit out of range");
    EMMCSIM_ASSERT(lpn.value() >= 0, "setUnit with invalid lpn");
    PageSlab &s = ownedSlabOf(ppn);
    const std::uint32_t p = pageInBlock(ppn);
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(!(s.valid[p] & bit), "setUnit on already-valid unit");
    s.lpns[p * unitsPerPage_ + slot] = lpn;
    s.valid[p] |= bit;
    ++blockValid_[blockOf(ppn)];
    ++validUnits_;
}

void
BlockPool::invalidateUnit(Ppn ppn, std::uint32_t slot)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "invalidateUnit out of range");
    const std::uint32_t p = pageInBlock(ppn);
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(slabOf(ppn).valid[p] & bit,
                   "invalidateUnit on stale unit");
    PageSlab &s = ownedSlabOf(ppn);
    s.valid[p] &= static_cast<std::uint8_t>(~bit);
    const std::uint32_t b = blockOf(ppn);
    EMMCSIM_ASSERT(blockValid_[b] > 0, "block valid underflow");
    --blockValid_[b];
    --validUnits_;
}

Lpn
BlockPool::lpnAt(Ppn ppn, std::uint32_t slot) const
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "lpnAt out of range");
    return slabOf(ppn).lpns[pageInBlock(ppn) * unitsPerPage_ + slot];
}

bool
BlockPool::unitValid(Ppn ppn, std::uint32_t slot) const
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "unitValid out of range");
    return (slabOf(ppn).valid[pageInBlock(ppn)] >> slot) & 1u;
}

std::uint32_t
BlockPool::validUnitsInPage(Ppn ppn) const
{
    EMMCSIM_ASSERT(ppn.value() < pageCount(),
                   "validUnitsInPage out of range");
    return static_cast<std::uint32_t>(
        std::popcount(slabOf(ppn).valid[pageInBlock(ppn)]));
}

std::uint32_t
BlockPool::validUnitsInBlock(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "validUnitsInBlock out of range");
    return blockValid_[i];
}

std::uint32_t
BlockPool::writtenPages(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "writtenPages out of range");
    return writePtr_[i];
}

bool
BlockPool::blockFull(BlockId b) const
{
    return writtenPages(b) >= pagesPerBlock_;
}

std::uint32_t
BlockPool::eraseCount(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "eraseCount out of range");
    return eraseCnt_[i];
}

std::uint64_t
BlockPool::blockAge(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockAge out of range");
    return allocSeq_ - lastWriteSeq_[i];
}

void
BlockPool::eraseBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "eraseBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "eraseBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "eraseBlock on retired block");
    EMMCSIM_ASSERT(blockValid_[i] == 0,
                   "eraseBlock with live units; relocate first");
    EMMCSIM_ASSERT(active_ != static_cast<std::int32_t>(i),
                   "eraseBlock on the active block");
    releaseSlab(i);
    writePtr_[i] = 0;
    ++eraseCnt_[i];
    ++totalErases_;
    isFree_[i] = true;
    ++freeCount_;
}

void
BlockPool::markSuspect(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "markSuspect out of range");
    EMMCSIM_ASSERT(!retired_[i], "markSuspect on retired block");
    EMMCSIM_ASSERT(!isFree_[i], "markSuspect on free block");
    suspect_[i] = true;
}

bool
BlockPool::blockSuspect(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockSuspect out of range");
    return suspect_[i];
}

void
BlockPool::sealBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "sealBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "sealBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "sealBlock on retired block");
    writePtr_[i] = pagesPerBlock_;
    if (active_ == static_cast<std::int32_t>(i))
        active_ = -1;
}

void
BlockPool::retireBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "retireBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "retireBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "retireBlock on retired block");
    EMMCSIM_ASSERT(blockValid_[i] == 0,
                   "retireBlock with live units; relocate first");
    EMMCSIM_ASSERT(active_ != static_cast<std::int32_t>(i),
                   "retireBlock on the active block");
    releaseSlab(i);
    // The write pointer stays at the end: a retired block is "full" of
    // nothing, keeping it out of every allocation and victim scan.
    writePtr_[i] = pagesPerBlock_;
    suspect_[i] = false;
    retired_[i] = true;
    ++retiredCount_;
}

bool
BlockPool::blockRetired(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockRetired out of range");
    return retired_[i];
}

std::uint32_t
BlockPool::eraseSpread() const
{
    auto [mn, mx] = std::minmax_element(eraseCnt_.begin(), eraseCnt_.end());
    return *mx - *mn;
}

bool
BlockPool::blockFree(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockFree out of range");
    return isFree_[i];
}

bool
BlockPool::blockHasSlab(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockHasSlab out of range");
    return slabs_[i] != nullptr;
}

void
BlockPool::corruptUnitForTest(Ppn ppn, std::uint32_t slot, Lpn lpn,
                              bool valid)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "corruptUnitForTest out of range");
    if (!slabs_[blockOf(ppn)])
        attachSlab(blockOf(ppn));
    PageSlab &s = ownedSlabOf(ppn);
    const std::uint32_t p = pageInBlock(ppn);
    s.lpns[p * unitsPerPage_ + slot] = lpn;
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    if (valid)
        s.valid[p] |= bit;
    else
        s.valid[p] &= static_cast<std::uint8_t>(~bit);
}

void
BlockPool::corruptValidUnitsForTest(std::int64_t delta)
{
    validUnits_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(validUnits_) + delta);
}

void
BlockPool::corruptFreeCountForTest(std::int64_t delta)
{
    freeCount_ = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(freeCount_) + delta);
}

void
BlockPool::corruptRetiredForTest(BlockId b, bool retired)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "corruptRetiredForTest out of range");
    retired_[i] = retired;
}

void
BlockPool::stampPageSeq(Ppn ppn, std::uint64_t seq)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount(), "stampPageSeq out of range");
    EMMCSIM_ASSERT(seq > 0, "page seq stamps start at 1");
    ownedSlabOf(ppn).seq[pageInBlock(ppn)] = seq;
}

std::uint64_t
BlockPool::pageSeq(Ppn ppn) const
{
    EMMCSIM_ASSERT(ppn.value() < pageCount(), "pageSeq out of range");
    return slabOf(ppn).seq[pageInBlock(ppn)];
}

void
BlockPool::tearPage(Ppn ppn)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount(), "tearPage out of range");
    ++tornPages_;
    const std::uint32_t b = blockOf(ppn);
    if (!slabs_[b])
        return; // the block already reads as erased
    PageSlab &s = *slabs_[b];
    const std::uint32_t p = pageInBlock(ppn);
    const std::uint32_t live =
        static_cast<std::uint32_t>(std::popcount(s.valid[p]));
    EMMCSIM_ASSERT(blockValid_[b] >= live, "block valid underflow");
    blockValid_[b] -= live;
    validUnits_ -= live;
    std::fill_n(s.lpns.begin() + p * unitsPerPage_, unitsPerPage_, kNoLpn);
    s.valid[p] = 0;
    s.seq[p] = 0;
}

void
BlockPool::beginRecoveryScan()
{
    for (const auto &slab : slabs_) {
        if (slab)
            std::fill(slab->valid.begin(), slab->valid.end(),
                      std::uint8_t{0});
    }
    std::fill(blockValid_.begin(), blockValid_.end(), 0u);
    validUnits_ = 0;
}

void
BlockPool::revalidateUnit(Ppn ppn, std::uint32_t slot)
{
    EMMCSIM_ASSERT(ppn.value() < pageCount() && slot < unitsPerPage_,
                   "revalidateUnit out of range");
    const std::uint32_t p = pageInBlock(ppn);
    EMMCSIM_ASSERT(slabOf(ppn).lpns[p * unitsPerPage_ + slot] != kNoLpn,
                   "revalidateUnit on unwritten slot");
    PageSlab &s = ownedSlabOf(ppn);
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(!(s.valid[p] & bit), "revalidateUnit on live unit");
    s.valid[p] |= bit;
    ++blockValid_[blockOf(ppn)];
    ++validUnits_;
}

void
BlockPool::sealOpenBlocks()
{
    if (active_ >= 0)
        sealBlock(BlockId{static_cast<std::uint32_t>(active_)});
}

// Image layout (snapshot v2): shape, the fixed-width scalars (active_
// sits at byte offset 24), the flat per-block state, then one record
// per slabbed block in ascending block order.
void
BlockPool::save(core::BinWriter &w) const
{
    w.u32(pageBytes_);
    w.u32(unitsPerPage_);
    w.u32(blocks_);
    w.u32(pagesPerBlock_);
    w.u32(freeCount_);
    w.u32(retiredCount_);
    w.i32(active_);
    w.u64(allocSeq_);
    w.u64(totalErases_);
    w.u64(programmed_);
    w.u64(validUnits_);
    w.u64(tornPages_);
    w.podVec(writePtr_);
    w.podVec(blockValid_);
    w.podVec(eraseCnt_);
    w.podVec(lastWriteSeq_);
    w.boolVec(isFree_);
    w.boolVec(suspect_);
    w.boolVec(retired_);
    w.u32(static_cast<std::uint32_t>(
        blocks_ - std::count(slabs_.begin(), slabs_.end(), nullptr)));
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        const PageSlab *slab = slabs_[b].get();
        if (!slab)
            continue;
        w.u32(b);
        w.podSpan(slab->lpns.data(), slab->lpns.size());
        w.podSpan(slab->valid.data(), slab->valid.size());
        w.podSpan(slab->seq.data(), slab->seq.size());
    }
}

void
BlockPool::load(core::BinReader &r)
{
    if (r.u32() != pageBytes_ || r.u32() != unitsPerPage_ ||
        r.u32() != blocks_ || r.u32() != pagesPerBlock_) {
        r.fail();
        return;
    }
    freeCount_ = r.u32();
    retiredCount_ = r.u32();
    active_ = r.i32();
    allocSeq_ = r.u64();
    totalErases_ = r.u64();
    programmed_ = r.u64();
    validUnits_ = r.u64();
    tornPages_ = r.u64();
    r.podVec(writePtr_);
    r.podVec(blockValid_);
    r.podVec(eraseCnt_);
    r.podVec(lastWriteSeq_);
    r.boolVec(isFree_);
    r.boolVec(suspect_);
    r.boolVec(retired_);
    if (writePtr_.size() != blocks_ || blockValid_.size() != blocks_ ||
        eraseCnt_.size() != blocks_ || lastWriteSeq_.size() != blocks_ ||
        isFree_.size() != blocks_ || suspect_.size() != blocks_ ||
        retired_.size() != blocks_) {
        r.fail();
        return;
    }

    // Every later accessor trusts these: an out-of-range active block
    // or write pointer would index past the per-block arrays.
    std::uint32_t free_flags = 0;
    std::uint32_t retired_flags = 0;
    std::uint32_t need_slab = 0;
    bool ok = active_ >= -1 && active_ < static_cast<std::int64_t>(blocks_);
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        free_flags += isFree_[b];
        retired_flags += retired_[b];
        need_slab += !isFree_[b] && !retired_[b];
        ok = ok && writePtr_[b] <= pagesPerBlock_ &&
             !(isFree_[b] && retired_[b]) &&
             (!isFree_[b] || writePtr_[b] == 0);
    }
    ok = ok && free_flags == freeCount_ && retired_flags == retiredCount_;
    if (ok && active_ >= 0)
        ok = !isFree_[active_] && !retired_[active_];
    if (!ok) {
        r.fail();
        return;
    }

    // Slabs: exactly the blocks that are neither free nor retired, in
    // ascending order, each re-deriving its block's valid count.
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        if (slabs_[b])
            releaseSlab(b);
    }
    const std::uint32_t count = r.u32();
    if (count != need_slab) {
        r.fail();
        return;
    }
    const std::uint8_t slot_bits =
        static_cast<std::uint8_t>((1u << unitsPerPage_) - 1u);
    std::uint64_t valid_sum = 0;
    std::int64_t prev = -1;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t b = r.u32();
        if (!r.ok() || static_cast<std::int64_t>(b) <= prev ||
            b >= blocks_ || isFree_[b] || retired_[b]) {
            r.fail();
            return;
        }
        prev = b;
        attachSlab(b);
        PageSlab &s = *slabs_[b];
        r.podSpan(s.lpns.data(), s.lpns.size());
        r.podSpan(s.valid.data(), s.valid.size());
        r.podSpan(s.seq.data(), s.seq.size());
        std::uint32_t derived = 0;
        for (std::uint8_t v : s.valid) {
            ok = ok && (v & ~slot_bits) == 0;
            derived += static_cast<std::uint32_t>(std::popcount(v));
        }
        if (!ok || derived != blockValid_[b]) {
            r.fail();
            return;
        }
        valid_sum += derived;
    }
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        if (!slabs_[b] && blockValid_[b] != 0) {
            r.fail();
            return;
        }
    }
    if (valid_sum != validUnits_)
        r.fail();
}

} // namespace emmcsim::flash
