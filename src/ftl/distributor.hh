/**
 * @file
 * RequestDistributor: scheme-specific write splitting.
 *
 * The paper's request distributor "splits a request into multiple
 * pages" — how it does so is exactly what distinguishes 4PS, 8PS and
 * HPS. The interface produces *page groups*: each group becomes one
 * physical page program in a chosen pool.
 *
 * Reads normally follow the mapping, but the FTL also consults the
 * distributor to time reads of never-written units (a replay on a
 * brand-new device reads data the original trace wrote before
 * collection started): such units are charged as if they had been laid
 * out by this same split.
 */

#ifndef EMMCSIM_FTL_DISTRIBUTOR_HH
#define EMMCSIM_FTL_DISTRIBUTOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "flash/pool.hh"
#include "sim/logging.hh"

namespace emmcsim::ftl {

/**
 * The logical units one physical page stores, held inline: a page
 * holds at most flash::kMaxUnitsPerPage units, so splitting a request
 * into page groups allocates nothing. Compares equal to a
 * std::vector<flash::Lpn> with the same elements.
 */
class LpnList
{
  public:
    using const_iterator = const flash::Lpn *;

    static constexpr std::size_t kCapacity = flash::kMaxUnitsPerPage;

    LpnList() = default;

    LpnList(std::initializer_list<flash::Lpn> lpns)
    {
        for (flash::Lpn lpn : lpns)
            push_back(lpn);
    }

    void
    push_back(flash::Lpn lpn)
    {
        EMMCSIM_ASSERT(size_ < kCapacity, "page group over capacity");
        items_[size_++] = lpn;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    flash::Lpn front() const { return items_[0]; }
    flash::Lpn operator[](std::size_t i) const { return items_[i]; }
    const flash::Lpn *begin() const { return items_.data(); }
    const flash::Lpn *end() const { return items_.data() + size_; }

    friend bool
    operator==(const LpnList &a, const std::vector<flash::Lpn> &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<flash::Lpn, kCapacity> items_{};
    std::uint8_t size_ = 0;
};

/** One physical page program: pool choice + the units it stores. */
struct PageGroup
{
    std::uint32_t pool = 0;
    LpnList lpns;
};

/** Splits write requests into page groups. */
class RequestDistributor
{
  public:
    virtual ~RequestDistributor() = default;

    /**
     * Split a write of @p n units starting at @p first.
     * @param out Receives the page groups (appended in order).
     */
    virtual void splitWrite(flash::Lpn first, std::uint32_t n,
                            std::vector<PageGroup> &out) const = 0;

    /** Human-readable scheme label ("4PS", "8PS", "HPS"). */
    virtual std::string name() const = 0;
};

/**
 * Distributor for single-page-size devices (4PS, 8PS).
 *
 * Cuts the unit run into chunks of the pool's page capacity; a final
 * partial chunk still consumes a whole physical page — the padding
 * loss the paper's space-utilization metric charges 8PS for.
 */
class SinglePoolDistributor : public RequestDistributor
{
  public:
    /**
     * @param pool           Pool index all writes target.
     * @param units_per_page Unit capacity of that pool's pages.
     * @param label          Scheme label for reports.
     */
    SinglePoolDistributor(std::uint32_t pool, std::uint32_t units_per_page,
                          std::string label);

    void splitWrite(flash::Lpn first, std::uint32_t n,
                    std::vector<PageGroup> &out) const override;

    std::string name() const override { return label_; }

  private:
    std::uint32_t pool_;
    std::uint32_t unitsPerPage_;
    std::string label_;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_DISTRIBUTOR_HH
