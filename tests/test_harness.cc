/** @file Tests for the experiment harness: table formatting, Table I
 *  calibration, region runs, whole-program composition, and region
 *  batches drawn from the paper spec. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/paper.hh"
#include "harness/table.hh"

namespace remap::harness
{
namespace
{

TEST(Table, AlignedPrint)
{
    Table t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "2.5"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvPrint)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(0.42), "42%");
    EXPECT_EQ(fmtPct(1.891, 0), "189%");
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(TableOne, MatchesPaperCalibration)
{
    power::EnergyModel model;
    TableOne t = computeTableOne(model);
    // Table I: 0.51 area, 0.14 peak dynamic, 0.67 leakage.
    EXPECT_NEAR(t.relArea, 0.51, 0.01);
    EXPECT_NEAR(t.relPeakDyn, 0.14, 0.01);
    EXPECT_NEAR(t.relLeak, 0.67, 0.01);
}

TEST(RunRegion, ProducesPositiveMetricsAndVerifies)
{
    power::EnergyModel model;
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::Seq;
    spec.iterations = 300;
    auto res = runRegion(workloads::byName("libquantum"), spec,
                         model);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.energyJ, 0.0);
    EXPECT_GT(res.cyclesPerUnit(), 0.0);
    EXPECT_GT(res.ed(), 0.0);
}

TEST(WholeProgram, CompositionIsConsistent)
{
    // Synthetic region results: the composition math must respect
    // Amdahl bounds and the migration penalty direction.
    workloads::WorkloadInfo info;
    info.name = "synthetic";
    info.execFraction = 0.5;
    info.mode = workloads::Mode::ComputeOnly;
    info.regionEpisodes = 1;

    power::EnergyModel model;
    VariantResults results;
    RegionResult seq;
    seq.cycles = 1'000'000;
    seq.energyJ = 1e-3;
    RegionResult seq2 = seq;
    seq2.cycles = 700'000; // OOO2 is 1.43x on this code
    seq2.energyJ = 1.2e-3;
    RegionResult comp = seq;
    comp.cycles = 250'000; // SPL gives 4x on the region
    comp.energyJ = 0.5e-3;
    results[workloads::Variant::Seq] = seq;
    results[workloads::Variant::SeqOoo2] = seq2;
    results[workloads::Variant::Comp] = comp;

    WholeProgramRow row =
        composeWholeProgram(info, results, model);
    // Region is half the program: whole-program speedup must be
    // below the region speedup and above 1.
    EXPECT_GT(row.remapSpeedup, 1.0);
    EXPECT_LT(row.remapSpeedup, 4.0);
    EXPECT_GT(row.ooo2commSpeedup, 1.0);
    // With a 4x region win, ReMAP must beat plain OOO2 here.
    EXPECT_GT(row.remapSpeedup, row.ooo2commSpeedup);

    // Cranking migration episodes must hurt ReMAP (the twolf effect).
    info.regionEpisodes = 2000;
    WholeProgramRow migrated =
        composeWholeProgram(info, results, model);
    EXPECT_LT(migrated.remapSpeedup, row.remapSpeedup);
}

} // namespace
} // namespace remap::harness

namespace remap::harness
{
namespace
{

TEST(BarrierSweepDriver, ProducesOrderedSanePoints)
{
    // Two ll3 cells of the Fig. 12 sweep at p8, with the Seq
    // baselines Fig. 14's ED is relative to, as the paper spec lists
    // them.
    using workloads::Variant;
    const auto &info = workloads::byName("ll3");
    std::vector<RegionJob> jobs;
    for (const RegionJob &job : paperJobs({"fig12"})) {
        const workloads::RunSpec &s = job.spec;
        if (job.info == &info &&
            (s.problemSize == 64 || s.problemSize == 256) &&
            (s.variant == Variant::Seq ||
             (s.variant == Variant::HwBarrier && s.threads == 8)))
            jobs.push_back(job);
    }
    ASSERT_EQ(jobs.size(), 4u);
    power::EnergyModel model;
    const PaperResults results(jobs, runRegions(jobs, model));

    double prev_cycles_per_iter = 0.0;
    for (const unsigned size : {64u, 256u}) {
        workloads::RunSpec spec;
        spec.problemSize = size;
        const RegionResult &seq = results.at(info, spec);
        spec.variant = Variant::HwBarrier;
        spec.threads = 8;
        const RegionResult &res = results.at(info, spec);
        // More work per iteration at the larger size.
        EXPECT_GT(res.cyclesPerUnit(), prev_cycles_per_iter);
        prev_cycles_per_iter = res.cyclesPerUnit();
        EXPECT_GT(res.ed(model.clockParams()) /
                      seq.ed(model.clockParams()),
                  0.0);
    }
}

TEST(VariantSetDriver, CoversExpectedVariants)
{
    // adpcm's Fig. 10 jobs, shortened to 600 iterations so the test
    // stays fast.
    using workloads::Variant;
    std::vector<RegionJob> jobs;
    for (RegionJob job : paperJobs({"fig10"})) {
        if (job.info->name != "adpcm")
            continue;
        job.spec.iterations = 600;
        jobs.push_back(job);
    }
    power::EnergyModel model;
    const std::vector<RegionResult> results = runRegions(jobs, model);
    VariantResults res;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        res[jobs[i].spec.variant] = results[i];
    EXPECT_EQ(res.size(), jobs.size());
    EXPECT_TRUE(res.count(Variant::Seq));
    EXPECT_TRUE(res.count(Variant::SeqOoo2));
    EXPECT_TRUE(res.count(Variant::Comp));
    EXPECT_TRUE(res.count(Variant::Comm));
    EXPECT_TRUE(res.count(Variant::CompComm));
    EXPECT_TRUE(res.count(Variant::Ooo2Comm));
    EXPECT_FALSE(res.count(Variant::SwQueue));
    // The headline ordering of Fig. 10 for adpcm.
    EXPECT_LT(res.at(Variant::CompComm).cycles,
              res.at(Variant::Comm).cycles);
    EXPECT_LT(res.at(Variant::Comm).cycles, res.at(Variant::Seq).cycles);
}

TEST(VariantNames, AllDistinct)
{
    using workloads::Variant;
    std::set<std::string> names;
    for (Variant v : {Variant::Seq, Variant::SeqOoo2, Variant::Comp,
                      Variant::Comm, Variant::CompComm,
                      Variant::Ooo2Comm, Variant::SwQueue,
                      Variant::SwBarrier, Variant::HwBarrier,
                      Variant::HwBarrierComp,
                      Variant::HomogBarrier})
        names.insert(workloads::variantName(v));
    EXPECT_EQ(names.size(), 11u);
}

} // namespace
} // namespace remap::harness
