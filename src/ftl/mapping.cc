#include "ftl/mapping.hh"

#include "sim/logging.hh"

namespace emmcsim::ftl {

PageMap::PageMap(std::uint64_t logical_units) : entries_(logical_units) {}

void
PageMap::checkRange(flash::Lpn lpn) const
{
    EMMCSIM_ASSERT(lpn.value() >= 0 &&
                       static_cast<std::uint64_t>(lpn.value()) <
                           entries_.size(),
                   "lpn out of logical range");
}

bool
PageMap::mapped(flash::Lpn lpn) const
{
    return lookup(lpn).mapped();
}

const MapEntry &
PageMap::lookup(flash::Lpn lpn) const
{
    checkRange(lpn);
    return entries_[static_cast<std::uint64_t>(lpn.value())];
}

void
PageMap::set(flash::Lpn lpn, const MapEntry &e)
{
    checkRange(lpn);
    EMMCSIM_ASSERT(e.mapped(), "setting unmapped entry; use clear()");
    auto &slot = entries_.mut(static_cast<std::uint64_t>(lpn.value()));
    if (!slot.mapped())
        ++mappedCount_;
    slot = e;
}

void
PageMap::clear(flash::Lpn lpn)
{
    // An unmapped entry needs no write, so clearing inside an untouched
    // chunk never allocates it.
    if (!lookup(lpn).mapped())
        return;
    --mappedCount_;
    entries_.mut(static_cast<std::uint64_t>(lpn.value())) = MapEntry{};
}

void
PageMap::reset()
{
    entries_.reset();
    mappedCount_ = 0;
}

void
PageMap::save(core::BinWriter &w) const
{
    entries_.save(w);
    w.u64(mappedCount_);
}

void
PageMap::load(core::BinReader &r)
{
    entries_.load(r);
    std::uint64_t mapped = 0;
    entries_.forEachOwned(
        [&mapped](std::uint64_t, const MapEntry &e) { mapped += e.mapped(); });
    if (r.u64() != mapped)
        r.fail();
    mappedCount_ = mapped;
}

} // namespace emmcsim::ftl
