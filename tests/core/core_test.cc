/**
 * @file
 * Core-module tests: scheme factory, report printer, and experiment
 * options plumbing.
 */

#include <gtest/gtest.h>

#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheme.hh"

using namespace emmcsim;
using namespace emmcsim::core;

TEST(Scheme, NamesAndOrder)
{
    ASSERT_EQ(allSchemes().size(), 3u);
    EXPECT_EQ(schemeName(allSchemes()[0]), "4PS");
    EXPECT_EQ(schemeName(allSchemes()[1]), "8PS");
    EXPECT_EQ(schemeName(allSchemes()[2]), "HPS");
}

TEST(Scheme, ConfigsMatchKind)
{
    EXPECT_EQ(schemeConfig(SchemeKind::PS4).geometry.pools.size(), 1u);
    EXPECT_EQ(schemeConfig(SchemeKind::PS8).geometry.pools[0].pageBytes,
              8192u);
    EXPECT_EQ(schemeConfig(SchemeKind::HPS).geometry.pools.size(), 2u);
}

TEST(Scheme, DistributorsMatchKind)
{
    EXPECT_EQ(schemeDistributor(SchemeKind::PS4)->name(), "4PS");
    EXPECT_EQ(schemeDistributor(SchemeKind::PS8)->name(), "8PS");
    EXPECT_EQ(schemeDistributor(SchemeKind::HPS)->name(), "HPS");
}

TEST(Scheme, MakeDeviceBuildsWorkingDevice)
{
    sim::Simulator s;
    auto dev = makeDevice(s, SchemeKind::HPS);
    EXPECT_EQ(dev->config().name, "HPS");
    EXPECT_GT(dev->ftl().logicalUnits(), 0u);
}

#if defined(__GLIBC__)
namespace {

/** Heap MiB a fresh HPS device at @p scale holds after construction. */
double
deviceHeapMb(double scale)
{
    ExperimentOptions opts;
    opts.capacityScale = scale;
    const emmc::EmmcConfig cfg =
        applyOptions(schemeConfig(SchemeKind::HPS), opts);
    sim::Simulator s;
    const struct mallinfo2 before = mallinfo2();
    auto dev = makeDevice(s, SchemeKind::HPS, cfg);
    const struct mallinfo2 after = mallinfo2();
    return static_cast<double>((after.uordblks + after.hblkhd) -
                               (before.uordblks + before.hblkhd)) /
           (1024.0 * 1024.0);
}

} // namespace
#endif

TEST(Scheme, DeviceHeapIsCapacityIndependent)
{
#if defined(__GLIBC__)
    // Device state scales with the written footprint (DESIGN.md §17):
    // a fresh 32 GB device costs O(planes x blocks) plus a chunk
    // directory, not a page table over the whole capacity.
    const double small = deviceHeapMb(0.02);
    const double full = deviceHeapMb(1.0);
    RecordProperty("heap_mb_scale_0_02", std::to_string(small));
    RecordProperty("heap_mb_scale_1_0", std::to_string(full));
    EXPECT_LT(full - small, 1.0)
        << "full-capacity device holds " << full << " MiB vs " << small
        << " MiB at scale 0.02";
#else
    GTEST_SKIP() << "heap accounting needs glibc mallinfo2";
#endif
}

TEST(ExperimentOptions, ApplyTogglesConfig)
{
    ExperimentOptions opts;
    opts.powerMode = true;
    opts.ramBuffer = true;
    opts.ramBufferUnits = 77;
    opts.packing = false;
    opts.idleGc = true;
    opts.multiplane = true;
    emmc::EmmcConfig cfg =
        applyOptions(schemeConfig(SchemeKind::PS4), opts);
    EXPECT_TRUE(cfg.power.enabled);
    EXPECT_TRUE(cfg.buffer.enabled);
    EXPECT_EQ(cfg.buffer.capacityUnits, 77u);
    EXPECT_FALSE(cfg.packing.enabled);
    EXPECT_TRUE(cfg.idleGcEnabled);
    EXPECT_TRUE(cfg.multiplane);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"Name", "Value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("Name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(text.find("----"), std::string::npos);
    // All rows begin at column 0 and "Value" column aligns.
    std::istringstream is(text);
    std::string line;
    std::getline(is, line);
    auto value_col = line.find("Value");
    std::getline(is, line); // separator
    std::getline(is, line);
    EXPECT_EQ(line.find('1'), value_col);
}

TEST(TablePrinter, RowCount)
{
    TablePrinter t({"A"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TablePrinterDeath, RowWidthMismatch)
{
    TablePrinter t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Fmt, Formats)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(std::uint64_t{42}), "42");
}

TEST(Scheme, ExtendedSchemesIncludeHslc)
{
    ASSERT_EQ(extendedSchemes().size(), 4u);
    EXPECT_EQ(schemeName(extendedSchemes()[3]), "HSLC");
    EXPECT_EQ(schemeDistributor(SchemeKind::HSLC)->name(), "HPS");
}
