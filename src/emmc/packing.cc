#include "emmc/packing.hh"

#include "sim/logging.hh"

namespace emmcsim::emmc {

std::size_t
WritePacker::packCount(std::span<const IoRequest> queue)
{
    EMMCSIM_ASSERT(!queue.empty(), "packCount on empty queue");
    if (!cfg_.enabled || !queue.front().write)
        return 1;

    std::size_t count = 0;
    units::Bytes bytes{0};
    for (const IoRequest &r : queue) {
        if (!r.write)
            break;
        if (count >= cfg_.maxRequests)
            break;
        if (count > 0 && bytes + r.sizeBytes > cfg_.maxBytes)
            break;
        bytes += r.sizeBytes;
        ++count;
    }
    if (count == 0)
        count = 1;
    if (count > 1) {
        ++stats_.packedCommands;
        stats_.packedRequests += count;
    }
    return count;
}

} // namespace emmcsim::emmc
