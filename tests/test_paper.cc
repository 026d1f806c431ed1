/** @file Tests for the paper spec (harness/paper.hh) that simulate
 *  nothing: every record renders from synthetic results for exactly
 *  its own job list, the job union is deduplicated in first-use
 *  order, and bench/paper's name parsing. A record whose render
 *  function and job list disagree fails here in milliseconds instead
 *  of at the end of a full paper run. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/paper.hh"

namespace remap::harness
{
namespace
{

const std::vector<std::string> kAllNames = {
    "table1", "table3", "fig8",  "fig9", "fig10", "fig11",
    "fig12",  "fig13",  "fig14", "svb",  "svc2"};

/** Distinct, positive synthetic results for @p jobs. */
std::vector<RegionResult>
synthetic(const std::vector<RegionJob> &jobs)
{
    std::vector<RegionResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i].cycles = 10'000 + 37 * i;
        results[i].insts = 5'000 + i;
        results[i].energyJ = 1e-6 * static_cast<double>(1 + i % 7);
        results[i].work = static_cast<double>(1 + i % 3);
    }
    return results;
}

std::string
render(const PaperRecord &record, const std::vector<RegionJob> &jobs)
{
    const power::EnergyModel model;
    const PaperResults results(jobs, synthetic(jobs));
    std::ostringstream os;
    record.render(os, results, model);
    return os.str();
}

TEST(PaperSpec, RecordsAreInPaperOrder)
{
    std::vector<std::string> names;
    for (const PaperRecord &r : paperRecords())
        names.push_back(r.name);
    EXPECT_EQ(names, kAllNames);
}

TEST(PaperSpec, EveryRecordRendersFromItsOwnJobs)
{
    // Each record renders from results for its own job list alone
    // (a read of any other run throws), under the heading CI checks.
    const std::vector<std::string> headings = {
        "Table I:",    "Table III:",  "Figure 8:",   "Figure 9:",
        "Figure 10:",  "Figure 11:",  "Figure 12:",  "Figure 13:",
        "Figure 14:",  "Section V-B:", "Section V-C.2:"};
    ASSERT_EQ(paperRecords().size(), headings.size());
    for (std::size_t i = 0; i < headings.size(); ++i) {
        const PaperRecord &r = paperRecords()[i];
        SCOPED_TRACE(r.name);
        std::string text;
        EXPECT_NO_THROW(text = render(r, r.jobs));
        EXPECT_EQ(text.rfind(headings[i], 0), 0u) << text;
    }
}

TEST(PaperSpec, EveryListedJobIsRead)
{
    // Leaving any one job out of a record's results makes its render
    // fail: the list holds no run the artifact does not print.
    for (const PaperRecord &r : paperRecords()) {
        std::set<std::string> keys;
        for (const RegionJob &job : r.jobs) {
            SCOPED_TRACE(r.name + " without " + jobKey(job));
            EXPECT_TRUE(keys.insert(jobKey(job)).second)
                << "listed twice";
            std::vector<RegionJob> rest;
            for (const RegionJob &other : r.jobs)
                if (jobKey(other) != jobKey(job))
                    rest.push_back(other);
            EXPECT_THROW(render(r, rest), std::out_of_range);
        }
    }
}

TEST(PaperSpec, JobUnionIsDeduplicatedInFirstUseOrder)
{
    // Figs. 12 and 14 read the same sweep; the union adds nothing.
    const std::vector<RegionJob> sweeps = paperJobs({"fig12", "fig14"});
    ASSERT_EQ(sweeps.size(), paperRecord("fig12").jobs.size());
    for (std::size_t i = 0; i < sweeps.size(); ++i)
        EXPECT_EQ(jobKey(sweeps[i]), jobKey(paperRecord("fig12").jobs[i]));

    // Section V-B adds one software-queue run per communicating
    // workload to Fig. 10's region set, after it.
    const std::vector<RegionJob> fig10 = paperRecord("fig10").jobs;
    const std::vector<RegionJob> with_svb = paperJobs({"fig10", "svb"});
    ASSERT_GT(with_svb.size(), fig10.size());
    for (std::size_t i = 0; i < with_svb.size(); ++i) {
        if (i < fig10.size())
            EXPECT_EQ(jobKey(with_svb[i]), jobKey(fig10[i]));
        else
            EXPECT_EQ(with_svb[i].spec.variant,
                      workloads::Variant::SwQueue);
    }

    std::set<std::string> keys;
    for (const RegionJob &job : paperJobs(kAllNames))
        EXPECT_TRUE(keys.insert(jobKey(job)).second) << jobKey(job);
    EXPECT_TRUE(paperJobs({"table1"}).empty());
}

TEST(PaperSpec, NamesParseStrictly)
{
    struct Case
    {
        std::vector<std::string> args;
        std::vector<std::string> names; ///< empty: must be rejected
        const char *errorPart = "";
    };
    const Case cases[] = {
        {{}, kAllNames},
        {{"fig12"}, {"fig12"}},
        {{"svc2", "fig8"}, {"fig8", "svc2"}},
        {{"fig15"}, {}, "unknown name 'fig15'"},
        {{"fig8", "fig8"}, {}, "name 'fig8' given twice"},
        {{"fig8", "FIG9"}, {}, "unknown name 'FIG9'"},
        {{""}, {}, "unknown name ''"},
        {{"--help"}, {}, "unknown name '--help'"},
    };
    for (const Case &c : cases) {
        std::string joined;
        for (const std::string &a : c.args)
            joined += "'" + a + "' ";
        SCOPED_TRACE(joined);
        std::vector<std::string> names;
        std::string error;
        const bool ok = parsePaperNames(c.args, &names, &error);
        EXPECT_EQ(ok, !c.names.empty());
        if (ok) {
            EXPECT_EQ(names, c.names);
            continue;
        }
        EXPECT_NE(error.find(c.errorPart), std::string::npos) << error;
        EXPECT_NE(error.find("valid names: table1 table3 fig8 fig9 "
                             "fig10 fig11 fig12 fig13 fig14 svb svc2"),
                  std::string::npos)
            << error;
        EXPECT_EQ(error.find('\n'), std::string::npos);
    }
}

} // namespace
} // namespace remap::harness
