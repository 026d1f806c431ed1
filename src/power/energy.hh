/**
 * @file
 * Activity-based energy and area models (Wattch/CACTI/HotLeakage
 * style) for 65 nm at 1.1 V.
 *
 * Dynamic energy = sum over structures of (accesses x per-access
 * energy); leakage = per-structure leakage power x simulated seconds.
 * The constants are calibrated so the relative area and power of four
 * OOO1 cores versus the 4-way-shared 24-row SPL reproduce Table I of
 * the paper (SPL = 0.51x area, 0.14x peak dynamic, 0.67x leakage),
 * and so an OOO2 core occupies 1.5x an OOO1 core (making a 4xOOO2
 * cluster area-equivalent to a 4xOOO1+SPL cluster, the paper's
 * OOO2+Comm comparison point).
 */

#ifndef REMAP_POWER_ENERGY_HH
#define REMAP_POWER_ENERGY_HH

#include <cstdint>

#include "sim/types.hh"

namespace remap::cpu
{
class OooCore;
} // namespace remap::cpu

namespace remap::mem
{
class MemSystem;
} // namespace remap::mem

namespace remap::spl
{
class SplFabric;
} // namespace remap::spl

namespace remap::power
{

/** An energy total, split by origin. */
struct Energy
{
    double dynamicJ = 0.0;
    double leakageJ = 0.0;

    /** Total joules. */
    double totalJ() const { return dynamicJ + leakageJ; }

    Energy &
    operator+=(const Energy &o)
    {
        dynamicJ += o.dynamicJ;
        leakageJ += o.leakageJ;
        return *this;
    }
};

/** Per-access energies (picojoules) and leakage for one core. */
struct CoreEnergyParams
{
    double fetchPj = 150.0;    ///< fetch+decode per instruction
    double renamePj = 100.0;   ///< rename/dispatch per instruction
    double robPj = 150.0;      ///< ROB write+read per instruction
    double iqPj = 100.0;       ///< issue-queue ops per instruction
    double regfilePj = 150.0;  ///< register file per instruction
    double intAluPj = 150.0;
    double fpAluPj = 300.0;
    double ldstPj = 100.0;     ///< LSQ/AGU per memory op
    double bpredPj = 50.0;     ///< predictor lookup+update
    double clockPj = 100.0;    ///< clock tree per active cycle
    double coreLeakW = 0.3;    ///< core + L1s leakage
    double l2LeakW = 0.1;      ///< private L2 leakage

    /** OOO1 calibration (Table II single-issue core). */
    static CoreEnergyParams ooo1();
    /** OOO2: wider structures cost ~1.6x dynamic, 1.5x leakage. */
    static CoreEnergyParams ooo2();
};

/** Cache/bus/DRAM access energies (picojoules). */
struct MemEnergyParams
{
    double l1Pj = 100.0;
    double l2Pj = 390.0;
    double busPj = 1000.0;
    double dramPj = 10000.0;
};

/** SPL fabric energies, calibrated to Table I. */
struct SplEnergyParams
{
    /** Energy per row activation (one row computing for one SPL
     *  cycle). 107.3 pJ yields the 0.14x peak-dynamic ratio against
     *  four OOO1 cores at their 1.15 nJ/cycle peak. */
    double rowPj = 107.3;
    double queueWordPj = 20.0;   ///< input/output queue word moves
    double configRowPj = 200.0;  ///< reconfiguration, per row
    double rowLeakW = 0.044667;  ///< per physical row
};

/** Area of blocks in OOO1-core-equivalent units. */
struct AreaParams
{
    double ooo1Core = 1.0;    ///< includes L1s and private L2 slice
    double ooo2Core = 1.5;
    double splPerRow = 0.085; ///< 24 rows = 2.04 = two OOO1 cores
};

/**
 * The chip energy model: turns simulator activity counters into
 * joules. Stateless aside from its parameter blocks.
 */
class EnergyModel
{
  public:
    EnergyModel() = default;
    EnergyModel(const CoreEnergyParams &ooo1,
                const CoreEnergyParams &ooo2,
                const MemEnergyParams &mem, const SplEnergyParams &spl,
                const ClockParams &clocks)
        : ooo1_(ooo1), ooo2_(ooo2), mem_(mem), spl_(spl),
          clocks_(clocks)
    {
    }

    /**
     * Energy of one core over @p cycles core cycles, reading the
     * core's commit-mix counters and its caches' access counters.
     * @param is_ooo2 selects the OOO2 parameter set
     * @param powered_on when false, only leakage is suppressed too
     *        (core power-gated; used for idle cores in a cluster)
     */
    Energy coreEnergy(const cpu::OooCore &core, mem::MemSystem &mem,
                      Cycle cycles, bool is_ooo2,
                      bool powered_on = true) const;

    /** Energy of one SPL fabric over @p cycles core cycles. */
    Energy splEnergy(const spl::SplFabric &fabric, Cycle cycles) const;

    /** Leakage-only energy of an idle, powered-on OOO1 core. */
    Energy idleCoreLeakage(Cycle cycles, bool is_ooo2) const;

    /** @{ @name Parameter access. */
    const CoreEnergyParams &ooo1Params() const { return ooo1_; }
    const CoreEnergyParams &ooo2Params() const { return ooo2_; }
    const MemEnergyParams &memParams() const { return mem_; }
    const SplEnergyParams &splParams() const { return spl_; }
    const AreaParams &areaParams() const { return area_; }
    const ClockParams &clockParams() const { return clocks_; }
    /** @} */

    /** Peak dynamic power of one core (W), for Table I. */
    double corePeakDynamicW(bool is_ooo2) const;
    /** Peak dynamic power of the full fabric (W), for Table I. */
    double splPeakDynamicW(unsigned rows) const;
    /** Leakage power of one core incl. L2 (W). */
    double coreLeakW(bool is_ooo2) const;
    /** Leakage power of @p rows fabric rows (W). */
    double splLeakW(unsigned rows) const;

  private:
    CoreEnergyParams ooo1_ = CoreEnergyParams::ooo1();
    CoreEnergyParams ooo2_ = CoreEnergyParams::ooo2();
    MemEnergyParams mem_{};
    SplEnergyParams spl_{};
    AreaParams area_{};
    ClockParams clocks_{};
};

} // namespace remap::power

#endif // REMAP_POWER_ENERGY_HH
