#include "core/hps.hh"

#include "sim/logging.hh"

namespace emmcsim::core {

HpsDistributor::HpsDistributor(std::uint32_t pool4k, std::uint32_t pool8k)
    : pool4k_(pool4k), pool8k_(pool8k)
{
    EMMCSIM_ASSERT(pool4k != pool8k, "HPS pools must differ");
}

void
HpsDistributor::splitWrite(flash::Lpn first, std::uint32_t n,
                           std::vector<ftl::PageGroup> &out) const
{
    EMMCSIM_ASSERT(n > 0, "splitWrite of zero units");
    std::uint32_t done = 0;
    while (n - done >= 2) {
        ftl::PageGroup g;
        g.pool = pool8k_;
        g.lpns = {first + done, first + done + 1};
        out.push_back(g);
        done += 2;
    }
    if (done < n) {
        ftl::PageGroup g;
        g.pool = pool4k_;
        g.lpns = {first + done};
        out.push_back(g);
    }
}

} // namespace emmcsim::core
