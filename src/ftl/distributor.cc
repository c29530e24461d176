#include "ftl/distributor.hh"

#include "sim/logging.hh"

namespace emmcsim::ftl {

SinglePoolDistributor::SinglePoolDistributor(std::uint32_t pool,
                                             std::uint32_t units_per_page,
                                             std::string label)
    : pool_(pool), unitsPerPage_(units_per_page), label_(std::move(label))
{
    EMMCSIM_ASSERT(units_per_page >= 1, "units per page must be >= 1");
}

void
SinglePoolDistributor::splitWrite(flash::Lpn first, std::uint32_t n,
                                  std::vector<PageGroup> &out) const
{
    EMMCSIM_ASSERT(n > 0, "splitWrite of zero units");
    std::uint32_t done = 0;
    while (done < n) {
        std::uint32_t take = std::min(unitsPerPage_, n - done);
        PageGroup g;
        g.pool = pool_;
        for (std::uint32_t i = 0; i < take; ++i)
            g.lpns.push_back(first + done + i);
        out.push_back(g);
        done += take;
    }
}

} // namespace emmcsim::ftl
