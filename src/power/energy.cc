#include "power/energy.hh"

#include "cpu/core.hh"
#include "mem/mem_system.hh"
#include "spl/fabric.hh"

namespace remap::power
{

namespace
{
constexpr double pjToJ = 1e-12;
} // namespace

CoreEnergyParams
CoreEnergyParams::ooo1()
{
    return CoreEnergyParams{};
}

CoreEnergyParams
CoreEnergyParams::ooo2()
{
    CoreEnergyParams p;
    const double dyn_scale = 1.6;
    p.fetchPj *= dyn_scale;
    p.renamePj *= dyn_scale;
    p.robPj *= dyn_scale;
    p.iqPj *= dyn_scale;
    p.regfilePj *= dyn_scale;
    p.intAluPj *= dyn_scale;
    p.fpAluPj *= dyn_scale;
    p.ldstPj *= dyn_scale;
    p.bpredPj *= dyn_scale;
    p.clockPj *= dyn_scale;
    p.coreLeakW *= 1.5;
    return p;
}

Energy
EnergyModel::coreEnergy(const cpu::OooCore &core, mem::MemSystem &mem,
                        Cycle cycles, bool is_ooo2,
                        bool powered_on) const
{
    const CoreEnergyParams &p = is_ooo2 ? ooo2_ : ooo1_;
    Energy e;
    if (!powered_on)
        return e;

    auto &c = const_cast<cpu::OooCore &>(core);
    const double fetched =
        static_cast<double>(c.fetchedInsts.value());
    const double committed =
        static_cast<double>(c.committedInsts.value());
    const double int_ops =
        static_cast<double>(c.committedIntOps.value());
    const double fp_ops =
        static_cast<double>(c.committedFpOps.value());
    const double mem_ops =
        static_cast<double>(c.committedLoads.value() +
                            c.committedStores.value());
    const double branches =
        static_cast<double>(c.committedBranches.value());
    const double active =
        static_cast<double>(c.activeCycles.value());

    e.dynamicJ += fetched * p.fetchPj * pjToJ;
    e.dynamicJ += committed * (p.renamePj + p.robPj + p.iqPj +
                               p.regfilePj) * pjToJ;
    e.dynamicJ += int_ops * p.intAluPj * pjToJ;
    e.dynamicJ += fp_ops * p.fpAluPj * pjToJ;
    e.dynamicJ += mem_ops * p.ldstPj * pjToJ;
    e.dynamicJ += branches * p.bpredPj * pjToJ;
    e.dynamicJ += active * p.clockPj * pjToJ;

    const CoreId id = core.id();
    const double l1 = static_cast<double>(
        mem.l1i(id).hits.value() + mem.l1i(id).misses.value() +
        mem.l1d(id).hits.value() + mem.l1d(id).misses.value());
    const double l2 = static_cast<double>(
        mem.l2(id).hits.value() + mem.l2(id).misses.value());
    e.dynamicJ += l1 * mem_.l1Pj * pjToJ;
    e.dynamicJ += l2 * mem_.l2Pj * pjToJ;

    const double seconds = clocks_.cyclesToSeconds(cycles);
    e.leakageJ += (p.coreLeakW + p.l2LeakW) * seconds;
    return e;
}

Energy
EnergyModel::splEnergy(const spl::SplFabric &fabric,
                       Cycle cycles) const
{
    Energy e;
    auto &f = const_cast<spl::SplFabric &>(fabric);
    const double rows =
        static_cast<double>(f.rowActivations.value());
    const double words =
        static_cast<double>(f.inputWordsStaged.value() +
                            f.outputWordsPopped.value());
    const double cfg_switches =
        static_cast<double>(f.configSwitches.value());

    e.dynamicJ += rows * spl_.rowPj * pjToJ;
    e.dynamicJ += words * spl_.queueWordPj * pjToJ;
    e.dynamicJ += cfg_switches * fabric.params().physRows *
                  spl_.configRowPj * pjToJ;

    const double seconds = clocks_.cyclesToSeconds(cycles);
    e.leakageJ +=
        spl_.rowLeakW * fabric.params().physRows * seconds;
    return e;
}

Energy
EnergyModel::idleCoreLeakage(Cycle cycles, bool is_ooo2) const
{
    const CoreEnergyParams &p = is_ooo2 ? ooo2_ : ooo1_;
    Energy e;
    e.leakageJ = (p.coreLeakW + p.l2LeakW) *
                 clocks_.cyclesToSeconds(cycles);
    return e;
}

double
EnergyModel::corePeakDynamicW(bool is_ooo2) const
{
    const CoreEnergyParams &p = is_ooo2 ? ooo2_ : ooo1_;
    // Peak: every per-instruction structure fires each cycle at the
    // core clock, one int op + one memory op mix, plus clock tree.
    const double per_inst_pj = p.fetchPj + p.renamePj + p.robPj +
                               p.iqPj + p.regfilePj + p.intAluPj +
                               p.ldstPj + p.bpredPj + p.clockPj +
                               mem_.l1Pj;
    const double width = is_ooo2 ? 2.0 : 1.0;
    return per_inst_pj * pjToJ * clocks_.coreFreqHz * width;
}

double
EnergyModel::splPeakDynamicW(unsigned rows) const
{
    // All rows active every SPL cycle.
    return static_cast<double>(rows) * spl_.rowPj * pjToJ *
           clocks_.splFreqHz;
}

double
EnergyModel::coreLeakW(bool is_ooo2) const
{
    const CoreEnergyParams &p = is_ooo2 ? ooo2_ : ooo1_;
    return p.coreLeakW + p.l2LeakW;
}

double
EnergyModel::splLeakW(unsigned rows) const
{
    return spl_.rowLeakW * rows;
}

} // namespace remap::power
