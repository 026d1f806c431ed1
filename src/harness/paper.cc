#include "harness/paper.hh"

#include <set>
#include <stdexcept>

#include "harness/snapshot_cache.hh"
#include "harness/table.hh"
#include "sim/logging.hh"

namespace remap::harness
{

using workloads::Mode;
using workloads::RunSpec;
using workloads::Variant;
using workloads::WorkloadInfo;

std::string
jobKey(const RegionJob &job)
{
    return SnapshotCache::makeKey(job.info->name, job.spec,
                                  /*config_hash=*/0);
}

PaperResults::PaperResults(const std::vector<RegionJob> &jobs,
                           const std::vector<RegionResult> &results)
{
    REMAP_ASSERT(jobs.size() == results.size(),
                 "results not aligned with jobs");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        byKey_.emplace(jobKey(jobs[i]), results[i]);
}

const RegionResult &
PaperResults::at(const WorkloadInfo &info, const RunSpec &spec) const
{
    const std::string key = jobKey(RegionJob{&info, spec});
    const auto it = byKey_.find(key);
    if (it == byKey_.end())
        throw std::out_of_range("no result for region run " + key);
    return it->second;
}

namespace
{

RunSpec
spec(Variant v, unsigned size = 0, unsigned threads = 1,
     unsigned copies = 1)
{
    RunSpec s;
    s.variant = v;
    s.problemSize = size;
    s.threads = threads;
    s.copies = copies;
    return s;
}

// ---------------------------------------------------------------- //
// Region set: Figs. 8-11 and Section V-B
// ---------------------------------------------------------------- //

/** Variant @p v of @p w as the region set runs it: compute-only
 *  1Th+Comp runs four concurrent copies to model fabric contention
 *  (Section V-A). */
RunSpec
regionSpec(const WorkloadInfo &w, Variant v)
{
    return spec(v, 0, 1,
                v == Variant::Comp && w.mode == Mode::ComputeOnly ? 4
                                                                  : 1);
}

/** Figs. 10-11: Seq, SeqOoo2 and 1Th+Comp for every workload, plus
 *  2Th+Comm, 2Th+CompComm and OOO2+Comm for communicating ones. */
std::vector<Variant>
regionVariants(const WorkloadInfo &w)
{
    std::vector<Variant> vs = {Variant::Seq, Variant::SeqOoo2,
                               Variant::Comp};
    if (w.mode == Mode::CommComp) {
        vs.insert(vs.end(), {Variant::Comm, Variant::CompComm,
                             Variant::Ooo2Comm});
    }
    return vs;
}

/** Figs. 8-9: what composeWholeProgram() reads — the baselines, the
 *  best ReMAP variant and the OOO2+Comm region. */
std::vector<Variant>
wholeProgramVariants(const WorkloadInfo &w)
{
    if (w.mode == Mode::CommComp) {
        return {Variant::Seq, Variant::SeqOoo2, Variant::CompComm,
                Variant::Ooo2Comm};
    }
    return {Variant::Seq, Variant::SeqOoo2, Variant::Comp};
}

/** Section V-B: software queues against Seq and 2Th+Comm, for the
 *  communicating workloads only. */
std::vector<Variant>
swQueueVariants(const WorkloadInfo &w)
{
    if (w.mode != Mode::CommComp)
        return {};
    return {Variant::Seq, Variant::Comm, Variant::SwQueue};
}

using VariantList = std::vector<Variant> (*)(const WorkloadInfo &);

/** The non-barrier workloads, in registry order: the region rows. */
std::vector<const WorkloadInfo *>
regionWorkloads()
{
    std::vector<const WorkloadInfo *> ws;
    for (const WorkloadInfo &w : workloads::registry())
        if (w.mode != Mode::Barrier)
            ws.push_back(&w);
    return ws;
}

std::vector<RegionJob>
regionJobs(VariantList variants)
{
    std::vector<RegionJob> jobs;
    for (const WorkloadInfo *w : regionWorkloads())
        for (Variant v : variants(*w))
            jobs.push_back(RegionJob{w, regionSpec(*w, v)});
    return jobs;
}

VariantResults
lookup(const PaperResults &results, const WorkloadInfo &w,
       VariantList variants)
{
    VariantResults res;
    for (Variant v : variants(w))
        res[v] = results.at(w, regionSpec(w, v));
    return res;
}

// ---------------------------------------------------------------- //
// Barrier sweeps: Figs. 12-14
// ---------------------------------------------------------------- //

struct Sweep
{
    const char *name;
    std::vector<unsigned> sizes;
    bool withComp; ///< the workload has Barrier+Comp variants
};

const std::vector<Sweep> &
barrierSweeps()
{
    static const std::vector<Sweep> sweeps = {
        {"ll2", {8, 16, 32, 64, 128, 256, 512}, false},
        {"ll6", {8, 16, 32, 64, 128, 256}, false},
        {"ll3", {32, 64, 128, 256, 512, 1024}, true},
        {"dijkstra", {32, 64, 96, 128, 160, 192}, true},
    };
    return sweeps;
}

struct Series
{
    Variant v;
    unsigned threads;
    const char *label;
};

/** The parallel columns of a Fig. 12/14 sweep: software and ReMAP
 *  barriers, plus Barrier+Comp where the workload has it, at 8 and
 *  16 threads. */
std::vector<Series>
sweepSeries(const Sweep &s)
{
    std::vector<Series> series = {
        {Variant::SwBarrier, 8, "SW-p8"},
        {Variant::SwBarrier, 16, "SW-p16"},
        {Variant::HwBarrier, 8, "Barrier-p8"},
        {Variant::HwBarrier, 16, "Barrier-p16"}};
    if (s.withComp) {
        series.push_back({Variant::HwBarrierComp, 8, "Barr+Comp-p8"});
        series.push_back(
            {Variant::HwBarrierComp, 16, "Barr+Comp-p16"});
    }
    return series;
}

/** Per size, the Seq baseline, then one run per series. */
std::vector<RegionJob>
sweepJobs()
{
    std::vector<RegionJob> jobs;
    for (const Sweep &s : barrierSweeps()) {
        const WorkloadInfo *info = &workloads::byName(s.name);
        for (unsigned size : s.sizes) {
            jobs.push_back(RegionJob{info, spec(Variant::Seq, size)});
            for (const Series &c : sweepSeries(s))
                jobs.push_back(
                    RegionJob{info, spec(c.v, size, c.threads)});
        }
    }
    return jobs;
}

const unsigned kFig13Threads[] = {2, 4, 8, 16};

std::vector<RegionJob>
fig13Jobs()
{
    std::vector<RegionJob> jobs;
    for (const Sweep &s : barrierSweeps()) {
        if (!s.withComp)
            continue;
        const WorkloadInfo *info = &workloads::byName(s.name);
        for (unsigned size : s.sizes)
            for (unsigned p : kFig13Threads)
                for (Variant v :
                     {Variant::HwBarrier, Variant::HwBarrierComp})
                    jobs.push_back(RegionJob{info, spec(v, size, p)});
    }
    return jobs;
}

/** Section V-C.2 sizes, divisible by both 4 and 6 threads. The
 *  paper's dijkstra advantage appears at fine granularities, where
 *  synchronization (what the SPL accelerates) dominates. */
const std::vector<std::pair<const char *, std::vector<unsigned>>> &
svc2Sizes()
{
    static const std::vector<
        std::pair<const char *, std::vector<unsigned>>>
        sizes = {{"ll3", {96, 192, 384, 768}},
                 {"dijkstra", {24, 36, 48, 96}}};
    return sizes;
}

/** Per size: Seq, ReMAP Barrier+Comp at p4, homogeneous at p6. */
std::vector<RegionJob>
svc2Jobs()
{
    std::vector<RegionJob> jobs;
    for (const auto &[name, sizes] : svc2Sizes()) {
        const WorkloadInfo *info = &workloads::byName(name);
        for (unsigned size : sizes) {
            jobs.push_back(RegionJob{info, spec(Variant::Seq, size)});
            jobs.push_back(
                RegionJob{info, spec(Variant::HwBarrierComp, size, 4)});
            jobs.push_back(
                RegionJob{info, spec(Variant::HomogBarrier, size, 6)});
        }
    }
    return jobs;
}

// ---------------------------------------------------------------- //
// Tables I and III
// ---------------------------------------------------------------- //

void
renderTable1(std::ostream &os, const PaperResults &,
             const power::EnergyModel &model)
{
    const TableOne t = computeTableOne(model);
    os << "Table I: relative area and power of four single-issue OOO "
          "cores\nand the four-way shared ReMAP fabric (model vs. "
          "paper)\n\n";
    Table tab;
    tab.header({"Config", "SPL Rows", "Total Area", "Peak Dyn. Power",
                "Total Leak. Power"});
    tab.row({"Four Cores", "N/A", "1.00", "1.00", "1.00"});
    tab.row({"4-way Shared SPL (model)", "24", fmt(t.relArea),
             fmt(t.relPeakDyn), fmt(t.relLeak)});
    tab.row({"4-way Shared SPL (paper)", "24", "0.51", "0.14", "0.67"});
    tab.print(os);

    os << "\nAbsolute model values:\n";
    Table abs;
    abs.header({"Quantity", "Value"});
    abs.row({"OOO1 core peak dynamic (W)",
             fmt(model.corePeakDynamicW(false), 3)});
    abs.row({"OOO2 core peak dynamic (W)",
             fmt(model.corePeakDynamicW(true), 3)});
    abs.row({"SPL 24-row peak dynamic (W)",
             fmt(model.splPeakDynamicW(24), 3)});
    abs.row({"OOO1 core + L2 leakage (W)",
             fmt(model.coreLeakW(false), 3)});
    abs.row({"SPL 24-row leakage (W)", fmt(model.splLeakW(24), 3)});
    abs.print(os);
}

const std::pair<Mode, const char *> kTable3Sections[] = {
    {Mode::ComputeOnly, "Computation Only"},
    {Mode::CommComp, "Communication+Computation"},
    {Mode::Barrier, "Barrier Synchronization"}};

/** The sequential default-size run of every workload, by section. */
std::vector<RegionJob>
table3Jobs()
{
    std::vector<RegionJob> jobs;
    for (const auto &[mode, title] : kTable3Sections)
        for (const WorkloadInfo &w : workloads::registry())
            if (w.mode == mode)
                jobs.push_back(RegionJob{&w, spec(Variant::Seq)});
    return jobs;
}

void
renderTable3(std::ostream &os, const PaperResults &results,
             const power::EnergyModel &)
{
    os << "Table III: benchmark details (exec-time fractions from the "
          "paper;\nregion instruction counts measured on this "
          "simulator)\n\n";
    for (const auto &[mode, title] : kTable3Sections) {
        os << title << "\n";
        Table t;
        t.header({"Benchmark", "Functions Optimized", "% Exec Time",
                  "Seq Region Insts", "Seq Region Cycles"});
        for (const WorkloadInfo &w : workloads::registry()) {
            if (w.mode != mode)
                continue;
            const RegionResult &r = results.at(w, spec(Variant::Seq));
            t.row({w.name, w.functions, fmtPct(w.execFraction),
                   std::to_string(r.insts), std::to_string(r.cycles)});
        }
        t.print(os);
        os << "\n";
    }
}

// ---------------------------------------------------------------- //
// Figs. 8-11 and Section V-B
// ---------------------------------------------------------------- //

void
renderFig8(std::ostream &os, const PaperResults &results,
           const power::EnergyModel &model)
{
    os << "Figure 8: whole-program performance improvement relative "
          "to the\nsingle-threaded OOO1 baseline\n\n";
    Table t;
    t.header({"Benchmark", "ReMAP", "OOO2+Comm"});
    std::vector<double> remap_vs_comm_compute, remap_vs_comm_comm;
    for (const WorkloadInfo *w : regionWorkloads()) {
        const WholeProgramRow row = composeWholeProgram(
            *w, lookup(results, *w, wholeProgramVariants), model);
        t.row({row.name, fmtPct(row.remapSpeedup - 1.0),
               fmtPct(row.ooo2commSpeedup - 1.0)});
        const double ratio = row.remapSpeedup / row.ooo2commSpeedup;
        if (w->mode == Mode::ComputeOnly)
            remap_vs_comm_compute.push_back(ratio);
        else
            remap_vs_comm_comm.push_back(ratio);
    }
    t.print(os);

    os << "\nReMAP over OOO2+Comm (geometric means):\n"
       << "  computation-only workloads: "
       << fmtPct(geomean(remap_vs_comm_compute) - 1.0)
       << " (paper: 49%)\n"
       << "  communicating workloads:    "
       << fmtPct(geomean(remap_vs_comm_comm) - 1.0)
       << " (paper: 41%)\n";
}

void
renderFig9(std::ostream &os, const PaperResults &results,
           const power::EnergyModel &model)
{
    os << "Figure 9: whole-program energy x delay relative to the "
          "single-threaded\nOOO1 baseline (lower is better)\n\n";
    Table t;
    t.header({"Benchmark", "ReMAP", "OOO2+Comm"});
    std::vector<double> ed_ratio;
    for (const WorkloadInfo *w : regionWorkloads()) {
        const WholeProgramRow row = composeWholeProgram(
            *w, lookup(results, *w, wholeProgramVariants), model);
        t.row({row.name, fmt(row.remapRelEd), fmt(row.ooo2commRelEd)});
        if (w->name != "twolf")
            ed_ratio.push_back(row.remapRelEd / row.ooo2commRelEd);
    }
    t.print(os);

    os << "\nReMAP ED vs OOO2+Comm ED, geomean excluding twolf: "
       << fmt(geomean(ed_ratio))
       << " (paper: ~0.65, i.e. 35% lower energy at 45% higher "
          "performance)\n";
}

void
renderFig10(std::ostream &os, const PaperResults &results,
            const power::EnergyModel &)
{
    os << "Figure 10: performance improvement of optimized regions "
          "relative to the\nsingle-threaded OOO1 baseline (positive % "
          "= faster)\n\n";
    Table t;
    t.header({"Benchmark", "1Th+Comp", "2Th+Comm", "2Th+CompComm",
              "OOO2+Comm"});
    auto pct = [](double base, double x) {
        return fmtPct(base / x - 1.0);
    };
    std::vector<double> comp_gains, comm_compcomm_gains, vs_ooo2_gains;
    for (const WorkloadInfo *w : regionWorkloads()) {
        const VariantResults res = lookup(results, *w, regionVariants);
        const double base =
            static_cast<double>(res.at(Variant::Seq).cycles);
        std::string comm = "-", compcomm = "-", ooo2 = "-";
        if (w->mode == Mode::CommComp) {
            comm = pct(base, res.at(Variant::Comm).cycles);
            compcomm = pct(base, res.at(Variant::CompComm).cycles);
            ooo2 = pct(base, res.at(Variant::Ooo2Comm).cycles);
            comm_compcomm_gains.push_back(
                base / res.at(Variant::CompComm).cycles);
            vs_ooo2_gains.push_back(
                static_cast<double>(res.at(Variant::Ooo2Comm).cycles) /
                res.at(Variant::CompComm).cycles);
        } else {
            ooo2 = pct(base, res.at(Variant::SeqOoo2).cycles);
            comp_gains.push_back(base / res.at(Variant::Comp).cycles);
        }
        t.row({w->name, pct(base, res.at(Variant::Comp).cycles), comm,
               compcomm, ooo2});
    }
    t.print(os);

    os << "\nSummary (geometric means):\n";
    os << "  compute-only 1Th+Comp speedup over Seq:      "
       << fmtPct(geomean(comp_gains) - 1.0) << "\n";
    os << "  communicating 2Th+CompComm speedup over Seq: "
       << fmtPct(geomean(comm_compcomm_gains) - 1.0) << "\n";
    os << "  2Th+CompComm speedup over OOO2+Comm:         "
       << fmtPct(geomean(vs_ooo2_gains) - 1.0) << "\n";
}

void
renderFig11(std::ostream &os, const PaperResults &results,
            const power::EnergyModel &model)
{
    os << "Figure 11: energy x delay of optimized regions relative to "
          "the\nsingle-threaded OOO1 baseline (lower is better)\n\n";
    Table t;
    t.header({"Benchmark", "1Th+Comp", "2Th+Comm", "2Th+CompComm",
              "OOO2+Comm"});
    const ClockParams clocks = model.clockParams();
    std::vector<double> compcomm_eds;
    for (const WorkloadInfo *w : regionWorkloads()) {
        const VariantResults res = lookup(results, *w, regionVariants);
        const double base_ed = res.at(Variant::Seq).ed(clocks);
        auto rel = [&](Variant v) {
            return fmt(res.at(v).ed(clocks) / base_ed);
        };
        std::string comm = "-", compcomm = "-", ooo2 = "-";
        if (w->mode == Mode::CommComp) {
            comm = rel(Variant::Comm);
            compcomm = rel(Variant::CompComm);
            ooo2 = rel(Variant::Ooo2Comm);
            compcomm_eds.push_back(
                res.at(Variant::CompComm).ed(clocks) / base_ed);
        } else {
            ooo2 = rel(Variant::SeqOoo2);
        }
        t.row({w->name, rel(Variant::Comp), comm, compcomm, ooo2});
    }
    t.print(os);

    os << "\n2Th+CompComm geometric-mean relative ED: "
       << fmt(geomean(compcomm_eds))
       << " (paper: below 1.0 in all cases)\n";
}

void
renderSvb(std::ostream &os, const PaperResults &results,
          const power::EnergyModel &)
{
    os << "Section V-B: software queues vs the OOO1 sequential "
          "baseline and\nSPL communication (positive degradation = "
          "slower than baseline)\n\n";
    Table t;
    t.header({"Benchmark", "SWQueue vs Seq", "SWQueue vs 2Th+Comm",
              "SWQueue cycles", "Seq cycles"});
    std::vector<double> degradation;
    for (const WorkloadInfo *w : regionWorkloads()) {
        if (w->mode != Mode::CommComp)
            continue;
        const VariantResults res = lookup(results, *w, swQueueVariants);
        const double seq =
            static_cast<double>(res.at(Variant::Seq).cycles);
        const double swq =
            static_cast<double>(res.at(Variant::SwQueue).cycles);
        const double comm =
            static_cast<double>(res.at(Variant::Comm).cycles);
        degradation.push_back(swq / seq);
        t.row({w->name, fmtPct(swq / seq - 1.0),
               fmtPct(swq / comm - 1.0),
               std::to_string(res.at(Variant::SwQueue).cycles),
               std::to_string(res.at(Variant::Seq).cycles)});
    }
    t.print(os);

    os << "\nGeomean degradation vs OOO1 baseline: "
       << fmtPct(geomean(degradation) - 1.0)
       << " (paper: more than 180% on average)\n";
}

// ---------------------------------------------------------------- //
// Figs. 12-14 and Section V-C.2
// ---------------------------------------------------------------- //

void
renderFig12(std::ostream &os, const PaperResults &results,
            const power::EnergyModel &)
{
    os << "Figure 12: per-iteration execution time (cycles) vs "
          "problem size\n\n";
    for (const Sweep &s : barrierSweeps()) {
        const WorkloadInfo &info = workloads::byName(s.name);
        const std::vector<Series> series = sweepSeries(s);
        os << "(" << s.name << ") cycles per iteration\n";
        Table t;
        std::vector<std::string> header = {"Size", "Seq"};
        for (const Series &c : series)
            header.push_back(c.label);
        t.header(header);
        for (unsigned size : s.sizes) {
            std::vector<std::string> row = {
                std::to_string(size),
                fmt(results.at(info, spec(Variant::Seq, size))
                        .cyclesPerUnit(),
                    0)};
            for (const Series &c : series)
                row.push_back(
                    fmt(results.at(info, spec(c.v, size, c.threads))
                            .cyclesPerUnit(),
                        0));
            t.row(row);
        }
        t.print(os);
        os << "\n";
    }
}

void
renderFig13(std::ostream &os, const PaperResults &results,
            const power::EnergyModel &)
{
    os << "Figure 13: improvement of barriers+computation over "
          "barriers alone\n(negative values = computation hurts, "
          "expected for tiny problem\nsizes at high thread counts in "
          "LL3)\n\n";
    for (const Sweep &s : barrierSweeps()) {
        if (!s.withComp)
            continue;
        const WorkloadInfo &info = workloads::byName(s.name);
        os << "(" << s.name
           << ") Barrier+Comp improvement over Barrier alone\n";
        Table t;
        t.header({"Size", "p2", "p4", "p8", "p16"});
        for (unsigned size : s.sizes) {
            std::vector<std::string> row = {std::to_string(size)};
            for (unsigned p : kFig13Threads) {
                const double barrier =
                    results.at(info, spec(Variant::HwBarrier, size, p))
                        .cyclesPerUnit();
                const double comp =
                    results
                        .at(info, spec(Variant::HwBarrierComp, size, p))
                        .cyclesPerUnit();
                row.push_back(fmtPct(barrier / comp - 1.0, 1));
            }
            t.row(row);
        }
        t.print(os);
        os << "\n";
    }
}

void
renderFig14(std::ostream &os, const PaperResults &results,
            const power::EnergyModel &model)
{
    os << "Figure 14: relative energy x delay vs problem size (lower "
          "is better;\n< 1.0 means the parallel version beats "
          "sequential on ED)\n\n";
    const ClockParams clocks = model.clockParams();
    for (const Sweep &s : barrierSweeps()) {
        const WorkloadInfo &info = workloads::byName(s.name);
        const std::vector<Series> series = sweepSeries(s);
        os << "(" << s.name << ") energy x delay relative to sequential\n";
        Table t;
        std::vector<std::string> header = {"Size"};
        for (const Series &c : series)
            header.push_back(c.label);
        t.header(header);
        for (unsigned size : s.sizes) {
            std::vector<std::string> row = {std::to_string(size)};
            const RegionResult &seq =
                results.at(info, spec(Variant::Seq, size));
            for (const Series &c : series)
                row.push_back(
                    fmt(results.at(info, spec(c.v, size, c.threads))
                            .ed(clocks) /
                        seq.ed(clocks)));
            t.row(row);
        }
        t.print(os);
        os << "\n";
    }
}

void
renderSvc2(std::ostream &os, const PaperResults &results,
           const power::EnergyModel &model)
{
    os << "Section V-C.2: ReMAP barriers+computation vs an "
          "area-equivalent\nhomogeneous cluster (SPL area -> two extra "
          "OOO1 cores + free barrier\nnetwork). ED advantage > 0 means "
          "ReMAP wins.\n\n";
    const ClockParams clocks = model.clockParams();
    for (const auto &[name, sizes] : svc2Sizes()) {
        const WorkloadInfo &info = workloads::byName(name);
        os << "(" << name << ")\n";
        Table t;
        t.header({"Size", "ReMAP B+C p4 ED", "Homog p6 ED",
                  "ReMAP ED advantage"});
        for (unsigned size : sizes) {
            const double seq_ed =
                results.at(info, spec(Variant::Seq, size)).ed(clocks);
            const double remap_ed =
                results.at(info, spec(Variant::HwBarrierComp, size, 4))
                    .ed(clocks) /
                seq_ed;
            const double homog_ed =
                results.at(info, spec(Variant::HomogBarrier, size, 6))
                    .ed(clocks) /
                seq_ed;
            t.row({std::to_string(size), fmt(remap_ed), fmt(homog_ed),
                   fmtPct(1.0 - remap_ed / homog_ed, 1)});
        }
        t.print(os);
        os << "\n";
    }
}

} // namespace

const std::vector<PaperRecord> &
paperRecords()
{
    static const std::vector<PaperRecord> records = {
        {"table1", {}, renderTable1},
        {"table3", table3Jobs(), renderTable3},
        {"fig8", regionJobs(wholeProgramVariants), renderFig8},
        {"fig9", regionJobs(wholeProgramVariants), renderFig9},
        {"fig10", regionJobs(regionVariants), renderFig10},
        {"fig11", regionJobs(regionVariants), renderFig11},
        {"fig12", sweepJobs(), renderFig12},
        {"fig13", fig13Jobs(), renderFig13},
        {"fig14", sweepJobs(), renderFig14},
        {"svb", regionJobs(swQueueVariants), renderSvb},
        {"svc2", svc2Jobs(), renderSvc2},
    };
    return records;
}

const PaperRecord &
paperRecord(const std::string &name)
{
    for (const PaperRecord &r : paperRecords())
        if (r.name == name)
            return r;
    REMAP_FATAL("no paper record named '%s'", name.c_str());
}

std::vector<RegionJob>
paperJobs(const std::vector<std::string> &names)
{
    std::vector<RegionJob> jobs;
    std::set<std::string> seen;
    for (const std::string &name : names)
        for (const RegionJob &job : paperRecord(name).jobs)
            if (seen.insert(jobKey(job)).second)
                jobs.push_back(job);
    return jobs;
}

bool
parsePaperNames(const std::vector<std::string> &args,
                std::vector<std::string> *names, std::string *error)
{
    std::string valid;
    std::set<std::string> known;
    for (const PaperRecord &r : paperRecords()) {
        valid += (valid.empty() ? "" : " ") + r.name;
        known.insert(r.name);
    }
    std::set<std::string> chosen;
    for (const std::string &arg : args) {
        if (known.count(arg) && chosen.insert(arg).second)
            continue;
        if (error) {
            *error = (known.count(arg) ? "name '" + arg + "' given twice"
                                       : "unknown name '" + arg + "'") +
                     "; valid names: " + valid;
        }
        return false;
    }
    names->clear();
    for (const PaperRecord &r : paperRecords())
        if (args.empty() || chosen.count(r.name))
            names->push_back(r.name);
    return true;
}

} // namespace remap::harness
