/**
 * @file
 * The workload layer: mini-ISA implementations of every benchmark
 * region in Table III of the paper, in every hardware variant the
 * evaluation compares.
 *
 * Substitution note (see DESIGN.md): the paper runs SPEC / MediaBench
 * / MiBench binaries and hand-optimizes the listed functions. We
 * implement those *functions* directly as mini-ISA kernels operating
 * on synthetic inputs designed to preserve the properties the paper's
 * analysis attributes to each benchmark (unpredictable branches in
 * adpcm/wc/unepic/libquantum, pointer chasing in unepic/twolf,
 * MAC-dominated loops in gsm, the Fig. 5 P7Viterbi recurrence, etc.).
 * Each kernel has a golden C++ model used by the test suite to verify
 * the simulated outputs bit-exactly.
 */

#ifndef REMAP_WORKLOADS_WORKLOAD_HH
#define REMAP_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "isa/builder.hh"

namespace remap::workloads
{

/** How a benchmark region uses ReMAP (Table III grouping). */
enum class Mode
{
    ComputeOnly, ///< SPL as a per-thread functional unit (Fig. 1(a))
    CommComp,    ///< producer/consumer pipelines (Fig. 1(b))
    Barrier,     ///< fine-grained barrier workloads (Fig. 1(c))
};

/** Hardware/parallelization variant of one run. */
enum class Variant
{
    Seq,           ///< single thread, OOO1, no SPL (baseline)
    SeqOoo2,       ///< single thread on an OOO2 core
    Comp,          ///< 1Th+Comp: thread(s) + SPL computation
    Comm,          ///< 2Th+Comm: SPL used for communication only
    CompComm,      ///< 2Th+CompComm: computation while communicating
    Ooo2Comm,      ///< two OOO2 cores + idealized comm network
    SwQueue,       ///< two OOO1 cores, memory-based software queue
    SwBarrier,     ///< p threads, software barriers (no SPL)
    HwBarrier,     ///< p threads, ReMAP barriers (passthrough)
    HwBarrierComp, ///< p threads, ReMAP barriers + SPL computation
    HomogBarrier,  ///< p OOO1 cores + zero-cost dedicated barrier
                   ///< network (Section V-C.2's homogeneous cluster)
};

/** Human-readable variant name. */
const char *variantName(Variant v);

/** Parameters of one prepared run. */
struct RunSpec
{
    Variant variant = Variant::Seq;
    /** Problem size (barrier workloads: vector length / node count;
     *  others: 0 = kernel default). */
    unsigned problemSize = 0;
    /** Thread count for barrier workloads (2/4/8/16). */
    unsigned threads = 1;
    /** Concurrent copies for compute-only contention studies. */
    unsigned copies = 1;
    /** Iteration-count override (0 = kernel default). */
    unsigned iterations = 0;
    /**
     * SMARTS-style sampling schedule (disabled by default = exact
     * execution). When enabled the harness drives the run through
     * System::runSampled() and reports extrapolated cycles with a
     * confidence interval; the schedule participates in configHash()
     * so sampled results never alias exact ones in the snapshot
     * cache (DESIGN.md §14).
     */
    sampling::SampleParams sample{};
};

/**
 * A fully-wired simulation: system, programs, placement and a golden
 * verifier. Returned by each workload's factory; run() drives it.
 */
class PreparedRun
{
  public:
    std::string name;
    std::unique_ptr<sys::System> system;
    /** Program storage (threads hold pointers into these). */
    std::vector<std::unique_ptr<isa::Program>> programs;
    /** Golden check, valid after run(); empty = none. */
    std::function<bool()> verify;
    /** Work units completed (e.g. loop iterations x copies), for
     *  per-unit normalization. */
    double workUnits = 1.0;

    /** Run to completion. Calls REMAP_FATAL on timeout. */
    sys::RunResult run(Cycle max_cycles = 400'000'000ULL);

    /** Add a program; returns a stable pointer. */
    isa::Program *addProgram(isa::Program p);
};

/** Static description of one Table III benchmark. */
struct WorkloadInfo
{
    std::string name;       ///< e.g. "hmmer"
    std::string functions;  ///< optimized functions (Table III)
    double execFraction;    ///< % of total execution time (Table III)
    Mode mode;
    /**
     * Number of distinct SPL-region episodes in a whole-program run,
     * used by the migration model of the Fig. 8/9 composition (each
     * episode costs two 500-cycle context switches). twolf's region
     * is entered very many times with short durations, which is why
     * migration cost dominates it (Section V-A).
     */
    unsigned regionEpisodes = 4;
    /** Factory for a prepared simulation of this workload. */
    std::function<PreparedRun(const RunSpec &)> make;
};

/** All Table III workloads, in the paper's order. */
const std::vector<WorkloadInfo> &registry();

/** Lookup by name; REMAP_FATAL when absent. */
const WorkloadInfo &byName(const std::string &name);

/** Names of the compute-only workloads (Fig. 8 order). */
std::vector<std::string> computeOnlyNames();
/** Names of the communicating workloads (Fig. 8 order). */
std::vector<std::string> commNames();
/** Names of the barrier workloads. */
std::vector<std::string> barrierNames();

// Individual factories (exposed for tests and examples).
PreparedRun makeG721(const RunSpec &, bool encode);
PreparedRun makeMpeg2Dec(const RunSpec &);
PreparedRun makeMpeg2Enc(const RunSpec &);
PreparedRun makeGsmToast(const RunSpec &);
PreparedRun makeGsmUntoast(const RunSpec &);
PreparedRun makeLibquantum(const RunSpec &);
PreparedRun makeWc(const RunSpec &);
PreparedRun makeUnepic(const RunSpec &);
PreparedRun makeCjpeg(const RunSpec &);
PreparedRun makeAdpcm(const RunSpec &);
PreparedRun makeTwolf(const RunSpec &);
PreparedRun makeHmmer(const RunSpec &);
PreparedRun makeAstar(const RunSpec &);
PreparedRun makeLivermore(const RunSpec &, unsigned loop_number);
PreparedRun makeDijkstra(const RunSpec &);

} // namespace remap::workloads

#endif // REMAP_WORKLOADS_WORKLOAD_HH
