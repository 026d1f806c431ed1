/**
 * @file
 * OooCore — a structure-constrained out-of-order core model.
 *
 * Functional-first ("execute-at-fetch") organization, the standard
 * technique of SESC/SimpleScalar-class simulators: instructions are
 * executed functionally, in program order, when fetched, so every
 * value, branch outcome and memory address is known up front; the
 * pipeline model then determines *when* everything happens, bounded
 * by the Table II structures:
 *
 *  - fetch/decode/rename width, issue/retire width,
 *  - 64-entry ROB, 32/16-entry int/FP issue queues,
 *  - FU counts (int ALU, FP ALU, branch, load/store) and latencies,
 *  - gshare+bimodal hybrid predictor with 512 B BTB — a mispredicted
 *    branch stalls fetch until it resolves plus a redirect penalty,
 *  - loads through the LSQ with store-to-load forwarding; stores and
 *    atomics access the timed MESI hierarchy,
 *  - the SPL extension: spl_load/init/bar act on the fabric at commit
 *    (with queue-full / destination-absent stalls), spl_store waits
 *    in the window until the fabric's timed output queue has data.
 *
 * Because fetch never follows a wrong path, there is no squash logic;
 * misprediction cost appears as fetch-stall cycles, which is the
 * first-order effect the paper's analysis relies on (Section V-B.1
 * discusses misprediction-rate changes between variants).
 */

#ifndef REMAP_CPU_CORE_HH
#define REMAP_CPU_CORE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/bpred.hh"
#include "cpu/thread.hh"
#include "isa/decoded.hh"
#include "isa/isa.hh"
#include "mem/mem_system.hh"
#include "mem/memory_image.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "spl/fabric.hh"

namespace remap::cpu
{

/** Core pipeline parameters (Table II). */
struct CoreParams
{
    std::string name = "ooo1";
    unsigned fetchWidth = 2;
    unsigned renameWidth = 2;  ///< decode/rename/dispatch width
    unsigned issueWidth = 1;
    unsigned retireWidth = 1;
    unsigned robEntries = 64;
    unsigned intQueueEntries = 32;
    unsigned fpQueueEntries = 16;
    unsigned loadQueueEntries = 16;
    unsigned storeQueueEntries = 16;
    unsigned fetchBufferEntries = 8;
    unsigned intAlus = 1;
    unsigned fpAlus = 1;
    unsigned branchUnits = 1;
    unsigned ldStUnits = 1;
    /** Extra fetch-redirect cycles after a mispredict resolves. */
    Cycle redirectPenalty = 3;
    /** Front-end bubble for a taken branch missing in the BTB. */
    Cycle btbMissPenalty = 2;
    BPredParams bpred{};

    /** Single-issue OOO1 configuration (Table II, left column). */
    static CoreParams ooo1();
    /** Dual-issue OOO2 configuration (Table II, right column). */
    static CoreParams ooo2();
};

/** One core of the simulated CMP. */
class OooCore
{
  public:
    /**
     * @param id global core id (indexes the MemSystem)
     * @param params pipeline configuration
     * @param mem timing memory hierarchy (not owned)
     * @param image functional memory (not owned)
     */
    OooCore(CoreId id, const CoreParams &params, mem::MemSystem *mem,
            mem::MemoryImage *image);

    /** Attach this core to its cluster fabric as local slot
     *  @p local_slot. Cores without SPL leave this unset. */
    void attachSpl(spl::SplFabric *fabric, unsigned local_slot);

    /** Bind @p ctx to run on this core (pipeline must be drained). */
    void bindThread(ThreadContext *ctx);

    /** The bound thread, or nullptr. */
    ThreadContext *thread() { return ctx_; }

    /** Stop fetching so the pipeline drains (migration support). */
    void requestDrain() { draining_ = true; }
    /** Resume fetching after an abandoned drain. */
    void cancelDrain() { draining_ = false; }
    /** True while a drain request is outstanding. */
    bool draining() const { return draining_; }
    /** True when no instructions remain in flight. */
    bool
    drained() const
    {
        return headSeq_ == nextSeq_;
    }

    /** Detach the thread (must be drained); the core goes idle. */
    void unbindThread();
    /** Local SPL slot of this core (valid when a fabric is attached). */
    unsigned splSlot() const { return splSlot_; }
    /** Fabric this core is attached to, or nullptr. */
    spl::SplFabric *splFabric() { return spl_; }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /**
     * True when the most recent tick() changed no state beyond the
     * fixed per-cycle stall signature (stall counters plus, for an
     * spl_store fetch stall, one pure L1I hit). Such a core may
     * sleep (see lastTickSelfTimed()).
     */
    bool lastTickQuiet() const { return !tickProgress_; }

    /**
     * True when the most recent tick was quiet and *self-timed*: it
     * read nothing another component can change — no SPL fetch or
     * commit stall, no SPL pop waiting in the issue queue. A quiet
     * tick that is not self-timed waited on this core's fabric port.
     * Either way, until nextEventCycle() or a move of wakeCount()
     * every later tick of this core replays it, even while the rest
     * of the chip makes progress, so the run loop may put the core to
     * sleep and account the skipped ticks later through
     * accountSkippedStallCycles() (DESIGN.md §10.2).
     */
    bool
    lastTickSelfTimed() const
    {
        return !tickProgress_ && !(stallMask_ & kFabricBound);
    }

    /**
     * Change count of everything outside this core that a sleeping
     * tick of it reads: its fabric port (SplFabric::portChanges). A
     * sleeper whose count moved must wake.
     */
    std::uint64_t
    wakeCount() const
    {
        return spl_ ? spl_->portChanges(splSlot_) : 0;
    }

    /**
     * Earliest cycle strictly after @p now at which this core's tick
     * could behave differently than it did at @p now, assuming no
     * other component acts in between: the minimum over every
     * time-threshold the pipeline compares against `now` (issued
     * instructions' completion, fetch-buffer head readiness, fetch
     * redirect resume, divider and store-buffer busy horizons, the
     * fabric output-queue head). Returns neverCycle when none is
     * pending. Only meaningful after a quiet tick — every comparison
     * with a threshold <= now keeps its truth value as now grows, so
     * the tick replays identically on every skipped cycle.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Bulk-apply the last quiet tick's stall signature @p n more
     * times: the per-cycle stall counters the skipped ticks would
     * have incremented, and the repeated L1I hit an spl_store fetch
     * stall replays each cycle. Bit-identical to ticking @p n times
     * while the core sleeps.
     */
    void accountSkippedStallCycles(Cycle n);

    /** True when the thread has halted and the pipeline drained. */
    bool done() const;

    /** Global core id. */
    CoreId id() const { return id_; }
    /** Configuration. */
    const CoreParams &params() const { return params_; }
    /** The branch predictor (exposed for stats). */
    BranchPredictor &bpred() { return bpred_; }

    /** @{ @name Statistics (consumed by the power model/harness). */
    StatCounter committedInsts;
    StatCounter committedIntOps;
    StatCounter committedFpOps;
    StatCounter committedLoads;
    StatCounter committedStores;
    StatCounter committedBranches;
    StatCounter committedSplOps;
    StatCounter fetchedInsts;
    StatCounter mispredicts;
    StatCounter robFullStalls;
    StatCounter iqFullStalls;
    StatCounter lsqFullStalls;
    StatCounter splCommitStalls;   ///< spl_init blocked at commit
    StatCounter splFetchStalls;    ///< spl_store value not yet produced
    StatCounter fetchStallCycles;  ///< cycles fetch was blocked
    StatCounter activeCycles;      ///< cycles with a live thread
    /** @} */

    /** Always 0: the fused fetch path they counted is gone. They exist
     *  only because perfbench/traced.cc still reads them, and go when
     *  that file is rewritten (ROADMAP item 3). */
    StatCounter blockFusedInsts;
    StatCounter blockGenericInsts;

    /** Dump core + predictor stats. */
    void dumpStats(std::ostream &os);
    /** Emit core + predictor stats into an open JSON object scope. */
    void dumpStatsJson(json::Writer &w);
    /** Reset all statistics. */
    void resetStats();

    /**
     * Stream committed instructions as text ("cycle core pc: disasm"
     * per line) to @p os; pass nullptr to stop tracing. Intended for
     * debugging kernels, not for measurement runs.
     */
    void setTraceStream(std::ostream *os) { trace_ = os; }

    /**
     * Emit SPL stall spans (commit-side initiation/barrier stalls,
     * fetch-side spl_store stalls) to @p t; this core's events land on
     * track @p tid. Null disables. Observation only: the pipeline is
     * unaffected.
     */
    void setTracer(trace::Tracer *t, std::uint32_t tid);

    /**
     * Serialize the pipeline: fetch buffer and ROB, as two lists
     * (DynInst::si is written as an index into the bound thread's
     * program), sequence
     * and producer state, queue occupancies, fetch/drain flags, unit
     * busy cycles, the branch predictor and the stat group. The bound
     * thread's ThreadContext is serialized by the System (threads
     * first), not here.
     */
    void save(snap::Serializer &s) const;
    /** Restore into a core whose thread binding already matches the
     *  snapshot (System rebinds before calling this). */
    void restore(snap::Deserializer &d);

  private:
    enum class Stage : std::uint8_t
    {
        InBuffer,   ///< fetched, waiting for dispatch
        Dispatched, ///< in the window, waiting for issue
        Issued,     ///< executing
        Completed,  ///< result available, awaiting commit
    };

    struct DynInst
    {
        const isa::Instruction *si = nullptr;
        /** Cached si->opClass(): derived, hot in every pipeline
         *  stage, recomputed (not serialized) on snapshot restore. */
        isa::OpClass cls = isa::OpClass::IntAlu;
        /** Cached isa::decodeOne(*si).flags: derived like cls and
         *  recomputed (not serialized) on snapshot restore. */
        std::uint16_t flags = 0;
        std::uint64_t seq = 0;
        std::uint64_t pcAddr = 0;
        Stage stage = Stage::InBuffer;
        Cycle fbReady = 0;       ///< earliest dispatch cycle
        Cycle completeCycle = 0;
        std::uint64_t dep1 = 0;  ///< producer seq of source 1 (0=ready)
        std::uint64_t dep2 = 0;  ///< producer seq of source 2
        Addr memAddr = 0;
        unsigned memLen = 0;
        std::int64_t storeValue = 0;
        std::int32_t splValue = 0;   ///< functional spl_store result
        std::int64_t splLoadValue = 0; ///< word staged by spl_load
        bool mispredicted = false;
        bool usesFpQueue = false;
        /**
         * Operand-readiness memo: 0 = unknown (walk the producers),
         * otherwise a proven lower bound on the first cycle the
         * producers could all be complete, so issue() can skip the
         * producer walk until then. Readiness is monotone (producers
         * only ever advance and their completeCycle is fixed once
         * issued), which makes the bound safe to cache. Derived,
         * never serialized; reset on restore.
         */
        Cycle notReadyUntil = 0;
    };

    // Pipeline stages, processed commit-first each tick.
    void commit(Cycle now);
    void writeback(Cycle now);
    void issue(Cycle now);
    void dispatch(Cycle now);
    void fetch(Cycle now);

    /** Functionally execute @p inst; fills @p d; returns false when
     *  fetch must stall (spl_store with no functional value yet). */
    bool funcExecute(const isa::Instruction &inst, DynInst &d);

    /** True when @p d's producers have completed by @p now; updates
     *  the notReadyUntil memo on @p d. */
    bool operandsReady(DynInst &d, Cycle now);
    /** The ROB entry with sequence number @p seq, or nullptr when
     *  @p seq is not in the ROB. */
    const DynInst *
    findBySeq(std::uint64_t seq) const
    {
        if (seq < headSeq_ || seq >= dispSeq_)
            return nullptr;
        return &win_[seq & winMask_];
    }
    /** The window slot of sequence number @p seq. */
    DynInst &slot(std::uint64_t seq) { return win_[seq & winMask_]; }
    /** ROB occupancy. */
    std::size_t robSize() const { return dispSeq_ - headSeq_; }
    /** Fetch-buffer occupancy. */
    std::size_t fbSize() const { return nextSeq_ - dispSeq_; }
    /** True when a store-like entry older than @p seq has not
     *  completed (atomics wait for that). */
    bool olderStoreIncomplete(std::uint64_t seq) const;

    /** Rebuild the per-core decoded-program table for the bound
     *  thread's program (no-op when the block cache is disabled). */
    void rebuildDecoded();

    /** Record @p d as the latest producer of its destination. */
    void recordProducer(const DynInst &d);
    /** Producer seq for a source register, 0 when ready. */
    std::uint64_t producerOf(bool fp, isa::RegIndex r) const;

    CoreId id_;
    CoreParams params_;
    mem::MemSystem *mem_;
    mem::MemoryImage *image_;
    spl::SplFabric *spl_ = nullptr;
    unsigned splSlot_ = 0;
    BranchPredictor bpred_;
    ThreadContext *ctx_ = nullptr;

    /**
     * The instruction window: one power-of-two slot array indexed by
     * `seq & winMask_`, sized once to hold robEntries +
     * fetchBufferEntries. Sequence numbers are dense, so the window
     * is three cursors: the ROB is [headSeq_, dispSeq_) and the fetch
     * buffer [dispSeq_, nextSeq_). Fetch constructs an entry in its
     * slot, dispatch advances dispSeq_ and commit advances headSeq_;
     * no stage copies an entry. Seq 0 means "no producer".
     */
    std::vector<DynInst> win_;
    std::uint64_t winMask_ = 0;
    std::uint64_t headSeq_ = 1;
    std::uint64_t dispSeq_ = 1;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t intProducer_[isa::numIntRegs] = {};
    std::uint64_t fpProducer_[isa::numFpRegs] = {};

    unsigned intQueueOcc_ = 0;
    unsigned fpQueueOcc_ = 0;
    unsigned loadQueueOcc_ = 0;
    unsigned storeQueueOcc_ = 0;
    /** @{ @name Per-stage lists over the window (derived: seqs only,
     * rebuilt from the ROB on restore, never serialized). Capacity is
     * reserved once, so the steady-state pipeline never allocates. */
    /** Issue queue: Dispatched seqs, oldest first. Issue walks it. */
    std::vector<std::uint64_t> iq_;
    /** Store list: store-like (store/atomic/fence) ROB seqs, oldest
     *  first; dispatch appends, commit pops the front. The
     *  store-to-load and atomic-ordering checks walk it. */
    std::vector<std::uint64_t> stores_;
    /** In-flight list: Issued seqs, unordered. Writeback walks it. */
    std::vector<std::uint64_t> inflight_;
    /** @} */
    /** Exact minimum completeCycle over the in-flight list
     *  (neverCycle when empty). Maintained by issue()/writeback(),
     *  recomputed on restore; lets writeback() and nextEventCycle()
     *  skip the walk. Derived, not serialized. */
    Cycle minIssuedComplete_ = neverCycle;

    /** @{ @name Decoded basic-block cache (derived, not snapshotted;
     * rebuilt by bindThread()/restore(). `decoded_` is a pure
     * function of the immutable bound Program — see isa/decoded.hh —
     * so it needs no invalidation between those points). */
    bool blockCacheEnabled_ = true; ///< !REMAP_NO_BLOCK_CACHE
    const isa::Program *decodedFor_ = nullptr;
    isa::DecodedProgram decoded_;
    /** @} */

    Cycle fetchResumeCycle_ = 0;
    std::uint64_t fetchBlockedOnSeq_ = 0; ///< unresolved mispredict
    bool fetchHalted_ = false;            ///< HALT fetched
    bool draining_ = false;               ///< migration drain request
    Cycle divBusyUntil_ = 0;
    Cycle fpDivBusyUntil_ = 0;
    Cycle storeBufferDrainCycle_ = 0;
    std::ostream *trace_ = nullptr;

    /** @{ @name Sleep bookkeeping (per-tick, not snapshotted: the
     * run loop consumes it in the same iteration that ticked). */
    enum : std::uint8_t
    {
        kStallFetch = 1u << 0,     ///< fetchStallCycles
        kStallSplFetch = 1u << 1,  ///< splFetchStalls + L1I re-probe
        kStallSplCommit = 1u << 2, ///< splCommitStalls
        kStallRobFull = 1u << 3,   ///< robFullStalls
        kStallIqFull = 1u << 4,    ///< iqFullStalls
        kStallLsqFull = 1u << 5,   ///< lsqFullStalls
        /** No counter: an SPL pop waited in the issue queue (it reads
         *  the fabric's output queue). */
        kWaitSplPop = 1u << 6,
        /** Bits whose tick read state another component can change. */
        kFabricBound = kStallSplFetch | kStallSplCommit | kWaitSplPop,
    };
    bool tickProgress_ = true; ///< last tick changed real state
    std::uint8_t stallMask_ = 0; ///< stall counters the tick bumped
    Addr stallFetchAddr_ = 0; ///< pc of the stalled spl_store group
    /** @} */

    /** Close any open SPL stall span at @p now (trace-only state). */
    void traceEndStall(Cycle now, bool commit_side);

    trace::Tracer *tracer_ = nullptr;
    std::uint32_t traceTid_ = 0;
    /** Start cycle of an open commit-side SPL stall span, or 0. */
    Cycle splCommitStallStart_ = 0;
    /** Start cycle of an open fetch-side SPL stall span, or 0. */
    Cycle splFetchStallStart_ = 0;

    StatGroup statGroup_;
};

} // namespace remap::cpu

#endif // REMAP_CPU_CORE_HH
