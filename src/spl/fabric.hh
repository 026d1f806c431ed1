/**
 * @file
 * SplFabric — timing and functional model of one cluster's shared SPL,
 * plus the chip-wide BarrierUnit and per-cluster support tables.
 *
 * Faithful to Section II of the paper:
 *  - 24 physical rows clocked at 500 MHz (4 core cycles per SPL cycle);
 *  - temporal sharing: round-robin acceptance among the cluster's
 *    cores, one initiation per SPL cycle per partition;
 *  - spatial partitioning into 1, 2 or 4 virtual clusters;
 *  - virtualization: a function with more rows than its partition still
 *    runs, with initiation interval ceil(rows / partition_rows);
 *  - queue-based decoupled interface: per-core staged input words with
 *    valid bits and a per-core output queue;
 *  - Thread-to-Core Table with in-flight counts (destination checks,
 *    switch-out blocking);
 *  - Barrier Table semantics with integrated computation and an
 *    inter-cluster barrier-update bus.
 */

#ifndef REMAP_SPL_FABRIC_HH
#define REMAP_SPL_FABRIC_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "spl/function.hh"

namespace remap::trace
{
class Tracer;
}

namespace remap::spl
{

/** Fabric sizing and latency parameters (Section II-A defaults). */
struct SplParams
{
    /** Physical rows in the fabric. */
    unsigned physRows = 24;
    /** Cores sharing the fabric. */
    unsigned coresPerCluster = 4;
    /** Core cycles per SPL cycle (2 GHz / 500 MHz). */
    unsigned coreCyclesPerSplCycle = 4;
    /** Sealed-but-unaccepted initiations allowed per core. */
    unsigned pendingInitsPerCore = 4;
    /** Output queue capacity per core, in words. */
    unsigned outputQueueWords = 32;
    /** SPL cycles to transfer results into an output queue. */
    unsigned outputTransferSplCycles = 1;
    /** SPL cycles per row to load a new configuration. */
    unsigned configLoadSplCyclesPerRow = 8;
    /** Configurations kept resident per partition (PipeRench-style
     *  virtualized configuration store): switching among resident
     *  configurations is free; only first loads pay the penalty. */
    unsigned residentConfigsPerPartition = 4;
    /** Core cycles for a barrier update to cross the cluster bus. */
    Cycle barrierBusLatency = 12;
};

/** Registry of loaded SPL configurations, shared chip-wide. */
class ConfigStore
{
  public:
    /** Register @p fn; @return its configuration id. */
    ConfigId add(SplFunction fn);

    /** Look up a configuration (panics on bad id). */
    const SplFunction &get(ConfigId id) const;

    /** Output-queue words a result of @p id needs (panics on bad id);
     *  computed once by add(). */
    unsigned
    resultWords(ConfigId id) const
    {
        REMAP_ASSERT(id < resultWords_.size(),
                     "bad SPL configuration id");
        return resultWords_[id];
    }

    /** Number of registered configurations. */
    std::size_t size() const { return fns_.size(); }

  private:
    std::vector<SplFunction> fns_;
    std::vector<unsigned> resultWords_;
};

/**
 * The per-cluster Thread-to-Core Table (Fig. 2(b)): maps the threads
 * currently scheduled on the cluster's cores and counts in-flight SPL
 * results destined for each core, enabling the switch-out blocking
 * rule of Section II-B.1.
 */
class ThreadToCoreTable
{
  public:
    explicit ThreadToCoreTable(unsigned cores);

    /** Bind @p thread (of @p app) to local core @p core. */
    void map(unsigned core, ThreadId thread, AppId app);
    /** Unbind whatever runs on @p core (requires zero in-flight). */
    void unmap(unsigned core);

    /** Local core currently running @p thread, if present. */
    std::optional<unsigned> coreOf(ThreadId thread) const;
    /** Thread on local core @p core, if any. */
    std::optional<ThreadId> threadOn(unsigned core) const;

    /** In-flight SPL results destined for @p core: initiated or
     *  released but not yet fully popped. */
    unsigned inFlight(unsigned core) const;
    /** Account one more in-flight result for @p core. */
    void addInFlight(unsigned core);
    /** Retire one in-flight result for @p core (its last word was
     *  popped); panics when none is in flight. */
    void removeInFlight(unsigned core);

    /** True when @p core's thread may be switched out now. */
    bool canSwitchOut(unsigned core) const
    {
        return inFlight(core) == 0;
    }

    /** Number of map()/unmap() calls so far: a change in which
     *  destinations SplFabric::canInit() finds present. */
    std::uint64_t changes() const { return changes_; }

    /** Serialize every entry (snapshot support). */
    void save(snap::Serializer &s) const;
    /** Restore into a table with the same core count. */
    void restore(snap::Deserializer &d);

  private:
    struct Entry
    {
        bool valid = false;
        ThreadId thread = invalidThread;
        AppId app = 0;
        unsigned inFlight = 0;
    };
    std::vector<Entry> entries_;
    std::uint64_t changes_ = 0;
};

class SplFabric;

/**
 * Chip-wide barrier manager modelling the per-cluster Barrier Tables
 * and the dedicated inter-cluster barrier-update bus (Section II-B.2).
 *
 * A barrier is declared once (id, config, expected total); threads
 * arrive via SPL_BAR instructions. When the last participant arrives,
 * every involved cluster's fabric executes the configured global
 * function over its local participants' staged inputs (the regional
 * stage of Section III-B) and broadcasts the result to those
 * participants' output queues.
 */
class BarrierUnit
{
  public:
    explicit BarrierUnit(const SplParams &params) : params_(params) {}

    /** Attach cluster fabrics (index = ClusterId). */
    void attachFabrics(std::vector<SplFabric *> fabrics);

    /** Declare barrier @p id with @p total participants. */
    void declare(std::uint32_t id, unsigned total);

    /**
     * Record an arrival. Called by the fabric at SPL_BAR commit.
     * @param inputs the arriving thread's staged input words
     */
    void arrive(std::uint32_t id, ThreadId thread, ClusterId cluster,
                unsigned local_core, ConfigId cfg,
                std::vector<std::int32_t> inputs, Cycle now);

    /** Number of currently pending (incomplete) barrier instances.
     *  O(1): maintained incrementally so System::run() can poll it
     *  every cycle. */
    std::size_t pendingBarriers() const { return pending_; }

    /**
     * Functional-preview arrival (execute-at-fetch support). Mirrors
     * arrive() but only computes values: when the last participant
     * functionally arrives, each cluster's regional result is pushed
     * into the participants' functional output FIFOs.
     */
    void funcArrive(std::uint32_t id, ClusterId cluster,
                    unsigned local_core, ConfigId cfg,
                    std::vector<std::int32_t> inputs);

    /** @{ @name Statistics. */
    StatCounter barriersCompleted;
    StatCounter busUpdates;
    /** @} */

    /** Emit arrive instants and arrive->release spans to @p t on
     *  track @p tid (null disables). Observation only: timing and
     *  results are unchanged. */
    void setTracer(trace::Tracer *t, std::uint32_t tid)
    {
        tracer_ = t;
        traceTid_ = tid;
    }

    /** Serialize declared barriers, outstanding arrivals (timed and
     *  functional) and the completion counters. Canonical: barrier
     *  instances are written in ascending id order. */
    void save(snap::Serializer &s) const;
    /** Restore state saved by save(); fabric attachments are kept. */
    void restore(snap::Deserializer &d);

  private:
    struct Arrival
    {
        ThreadId thread;
        ClusterId cluster;
        unsigned localCore;
        std::vector<std::int32_t> inputs;
        Cycle cycle;
    };
    struct BarrierState
    {
        unsigned total = 0;
        std::vector<Arrival> arrivals;
        /** Cycle of the instance's first arrival (trace span start). */
        Cycle firstArrival = 0;
    };

    void release(std::uint32_t id, BarrierState &b, ConfigId cfg);

    SplParams params_;
    std::vector<SplFabric *> fabrics_;
    std::unordered_map<std::uint32_t, BarrierState> barriers_;
    /** Functional-preview arrival state, independent of timing. */
    std::unordered_map<std::uint32_t, BarrierState> funcBarriers_;
    /** Barriers with at least one arrival outstanding. */
    std::size_t pending_ = 0;
    trace::Tracer *tracer_ = nullptr;
    std::uint32_t traceTid_ = 0;
};

/**
 * One cluster's SPL fabric: functional evaluation plus the pipelined,
 * shared, partitionable timing model.
 *
 * The owning System calls tick() once per core cycle; internal action
 * happens on SPL cycle boundaries. Core models call the canX()/X()
 * pairs at instruction commit; a false canX() means "stall and retry
 * next cycle", which is exactly the queue-full/empty and
 * destination-absent behaviour of the paper.
 */
class SplFabric
{
  public:
    /**
     * @param cluster this fabric's cluster id
     * @param params sizing knobs
     * @param configs chip-wide configuration registry
     * @param barriers chip-wide barrier unit (may be null in tests)
     */
    SplFabric(ClusterId cluster, const SplParams &params,
              const ConfigStore *configs, BarrierUnit *barriers);

    /** Partition the fabric into @p n equal virtual clusters (1/2/4).
     *  Cores are assigned contiguously (e.g. n=2: cores {0,1},{2,3}). */
    void setPartitions(unsigned n);

    /** The cluster's thread-to-core table. */
    ThreadToCoreTable &threadTable() { return threadTable_; }

    // ---- core-side interface (local core index 0..cores-1) ----

    /** True when @p core may stage another input word. */
    bool canLoad(unsigned core) const;
    /** Stage @p value as input word @p word_idx. */
    void load(unsigned core, unsigned word_idx, std::int32_t value);

    /**
     * True when @p core may issue an initiation to @p dest_thread
     * (pending slot free; destination present in the thread table).
     * @p dest_thread < 0 means "deliver to self".
     */
    bool canInit(unsigned core, std::int64_t dest_thread) const;
    /** Seal staged inputs and enqueue an initiation. */
    void init(unsigned core, ConfigId cfg, std::int64_t dest_thread,
              Cycle now);

    /** True when @p core may issue a barrier arrival. */
    bool canBar(unsigned core) const;
    /** Seal staged inputs and arrive at barrier @p barrier_id. */
    void bar(unsigned core, ConfigId cfg, std::uint32_t barrier_id,
             Cycle now);

    /** True when a result word is available to @p core at @p now. */
    bool outputReady(unsigned core, Cycle now) const;
    /** Pop the head result word (caller must check outputReady).
     *  @p now timestamps the queue-depth trace sample; callers
     *  without tracing may omit it. */
    std::int32_t popOutput(unsigned core, Cycle now = 0);

    /** Sealed-but-unaccepted initiations queued by @p core. */
    unsigned
    pendingInitDepth(unsigned core) const
    {
        return static_cast<unsigned>(ports_.at(core).pending.size());
    }
    /** Result words currently queued for @p core. */
    unsigned
    outputQueueDepth(unsigned core) const
    {
        return static_cast<unsigned>(ports_.at(core).output.size());
    }
    /** Functional result words funcPop() can still return to
     *  @p core. */
    unsigned
    funcOutputDepth(unsigned core) const
    {
        return static_cast<unsigned>(ports_.at(core).funcOutput.size());
    }

    // ---- functional-preview interface (execute-at-fetch) ----
    //
    // The core model executes instructions functionally at fetch time
    // (standard functional-first simulation); these mirrors of the
    // timed interface compute values eagerly, while the timed path
    // above determines *when* those values become available. The two
    // paths evaluate the same functions on the same inputs, so the
    // core asserts value equality when the timed result arrives.

    /** Functionally stage input word @p word_idx. */
    void funcLoad(unsigned core, unsigned word_idx,
                  std::int32_t value);
    /** Functionally initiate: evaluates now, pushes to the
     *  destination's functional output FIFO. */
    void funcInit(unsigned core, ConfigId cfg,
                  std::int64_t dest_thread);
    /** Functionally arrive at barrier @p barrier_id. */
    void funcBar(unsigned core, ConfigId cfg,
                 std::uint32_t barrier_id);
    /** Pop the next functional result word, if one exists yet. */
    std::optional<std::int32_t> funcPop(unsigned core);
    /** Push functional result words to @p core (BarrierUnit path). */
    void funcDeliver(unsigned core,
                     const std::vector<std::int32_t> &words);

    // ---- system-side interface ----

    /** Advance the fabric; call once per core cycle. */
    void tick(Cycle now);

    /** Enqueue a released barrier's regional computation. */
    void enqueueBarrierOp(ConfigId cfg,
                          std::vector<unsigned> local_cores,
                          std::vector<std::vector<std::int32_t>> inputs,
                          Cycle ready);

    /** True when no work is queued or in flight (quiesced). O(1):
     *  pending initiations are counted as they enter and leave the
     *  per-core queues, so System::run() can poll this every cycle
     *  and skip tick() entirely for quiesced fabrics. */
    bool
    idle() const
    {
        return pipeline_.empty() && parkedCount_ == 0 &&
               barrierQueue_.empty() && pendingInits_ == 0;
    }

    /** Availability cycle of @p core's head output word (neverCycle
     *  when the queue is empty). Feeds the owning core's horizon. */
    Cycle outputHeadReadyCycle(unsigned core) const;

    /**
     * Change count of @p core's port: it moves whenever the answer of
     * funcPop(), outputReady(), outputHeadReadyCycle() or canInit()
     * for @p core may have changed (its functional or timed output
     * queue, its pending-initiation queue, or the thread table). A
     * core whose quiet tick waited on this port sleeps until the
     * count moves or its own horizon passes (DESIGN.md §10.2).
     * Derived and monotone within a run; never serialized.
     */
    std::uint64_t
    portChanges(unsigned core) const
    {
        return ports_[core].changes + threadTable_.changes();
    }

    /** This fabric's cluster id. */
    ClusterId cluster() const { return cluster_; }
    /** Sizing parameters. */
    const SplParams &params() const { return params_; }
    /** The chip-wide configuration registry this fabric uses. */
    const ConfigStore &configStore() const { return *configs_; }

    /** @{ @name Statistics (consumed by the power model). */
    StatCounter initiations;
    StatCounter rowActivations;
    StatCounter inputWordsStaged;
    StatCounter outputWordsPopped;
    StatCounter barrierOps;
    StatCounter configSwitches;
    StatCounter rrConflicts;     ///< initiations delayed by sharing
    StatCounter virtualizedInits; ///< initiations with II > 1
    /** High-water mark of results parked on full output queues. */
    StatCounter parkedResultsMax;
    /** Parked results summed over SPL boundaries. */
    StatCounter parkedResultSplCycles;
    /** Ops that found a destination output queue full. */
    StatCounter outputFullBlocks;
    /** @} */

    /** Dump all counters. */
    void dumpStats(std::ostream &os) { statGroup_.dump(os); }
    /** Emit counters into an open JSON object scope. */
    void dumpStatsJson(json::Writer &w) { statGroup_.dumpJson(w); }
    /** Reset all counters. */
    void resetStats() { statGroup_.reset(); }

    /**
     * Emit fabric activity (initiation spans, virtualization and
     * sharing instants, per-core queue-depth counters) to @p t on
     * track @p tid. Observation only: fabric timing is unchanged.
     */
    void setTracer(trace::Tracer *t, std::uint32_t tid);

    /** Serialize all dynamic state: ports (staged words, pending
     *  initiations, output queues, functional mirrors), partition
     *  schedulers (next-accept, round-robin pointer, resident
     *  configurations), in-flight ops, the queued barrier work, the
     *  thread table and the stat counters. Partition geometry is
     *  structural and only written for verification. */
    void save(snap::Serializer &s) const;
    /** Restore into a fabric built with identical params/partitions;
     *  pendingInits_ is recomputed from the restored queues. */
    void restore(snap::Deserializer &d);

  private:
    struct PendingInit
    {
        ConfigId cfg;
        std::int64_t destThread;  ///< -1 = self
        std::vector<std::int32_t> inputs;
        Cycle readyCycle;         ///< earliest acceptance cycle
    };
    struct InFlightOp
    {
        ConfigId cfg;
        unsigned srcCore;
        std::vector<unsigned> destCores; ///< local cores to deliver to
        std::vector<std::vector<std::int32_t>> inputs;
        bool isBarrier;
        Cycle completeCycle;
        /** Acceptance order: heap tie-break and completion order. */
        std::uint64_t seq = 0;
        /** Has found its destination queue full (counted once). */
        bool blocked = false;
    };
    struct OutputWord
    {
        std::int32_t value;
        Cycle ready; ///< available-at cycle
        bool last;   ///< ends its result: popping it retires the
                     ///< destination's in-flight count
    };
    struct Partition
    {
        unsigned firstCore = 0;
        unsigned numCores = 0;
        unsigned rows = 0;
        Cycle nextAccept = 0;
        unsigned rrNext = 0;
        /** Resident configurations, most recently used last. */
        std::vector<ConfigId> residentCfgs;
    };

    /** Returns extra core cycles to make @p cfg usable in @p part
     *  (0 when already resident), updating residency LRU. */
    Cycle configSwitchCost(Partition &part, ConfigId cfg,
                           unsigned rows);
    struct CorePort
    {
        /** Open (unsealed) staged input words, by index. */
        std::vector<std::int32_t> staged;
        std::vector<bool> stagedValid;
        std::deque<PendingInit> pending;
        /** Output FIFO. */
        std::deque<OutputWord> output;
        /** Functional-preview staging and output FIFO. */
        std::vector<std::int32_t> funcStaged;
        std::vector<bool> funcStagedValid;
        std::deque<std::int32_t> funcOutput;
        /** Complete single-destination results waiting for room in
         *  this output queue, in acceptance order. */
        std::deque<InFlightOp> parked;
        /** Parked results per result width, and the narrowest width
         *  present: once the free words drop below it, nothing
         *  parked here can fit until the next pop. */
        std::vector<std::uint32_t> parkedByWidth;
        unsigned parkedMinWidth = 0;
        /** Popped since the last SPL boundary (room grew). */
        bool popped = false;
        /** Mutations of output, funcOutput and pending (see
         *  portChanges()). */
        std::uint64_t changes = 0;
    };

    Partition &partitionOf(unsigned core);
    std::vector<std::int32_t> sealStaged(unsigned core);
    std::vector<std::int32_t> sealFuncStaged(unsigned core);
    void acceptPending(Partition &part, Cycle now);
    /** Push an accepted op into the completion heap. */
    void launch(InFlightOp op);
    void completeOps(Cycle now);
    /** True when every destination of @p op has room for its result. */
    bool hasRoom(const InFlightOp &op) const;
    /** Evaluate @p op and deliver its result, available at @p when. */
    void deliver(const InFlightOp &op, Cycle when);
    /** Append one result's @p words to @p core's output queue. */
    void deliverOutput(unsigned core,
                       const std::vector<std::int32_t> &words,
                       Cycle when);
    /** Park a complete op whose destination queue is full, in
     *  acceptance order; @return the list position it took. */
    std::size_t park(InFlightOp op);
    /** Drop the parked op at @p pos of @p core's list. */
    void unparkAt(unsigned core, std::size_t pos);

    /** Counter-event snapshot of @p core's queue depths. */
    void traceQueueDepth(unsigned core, Cycle now);
    /** Duration event for an accepted op on the fabric. */
    void traceAccept(const char *name, unsigned src_core, Cycle start,
                     Cycle complete, unsigned rows, unsigned ii,
                     bool is_barrier);

    ClusterId cluster_;
    SplParams params_;
    const ConfigStore *configs_;
    BarrierUnit *barriers_;
    ThreadToCoreTable threadTable_;
    std::vector<CorePort> ports_;
    std::vector<Partition> partitions_;
    /** Accepted ops not yet complete: a min-heap on (completeCycle,
     *  seq). */
    std::vector<InFlightOp> pipeline_;
    /** Complete multi-destination (barrier broadcast) ops waiting for
     *  room, in acceptance order. */
    std::deque<InFlightOp> parkedShared_;
    /** Results parked across all lists. */
    std::size_t parkedCount_ = 0;
    /** Next acceptance sequence number. */
    std::uint64_t nextSeq_ = 0;
    /** The SPL boundary of the last completeOps() pass. A parked op's
     *  completion cycle is this plus one SPL cycle (retried next). */
    Cycle lastBoundary_ = 0;
    /** completeOps() working storage: ops completing this boundary
     *  and the per-core parked-list cursors. */
    std::vector<InFlightOp> ready_;
    std::vector<std::size_t> cursor_;
    /** Released barrier work waiting for RR acceptance. */
    std::deque<InFlightOp> barrierQueue_;
    /** Total sealed-but-unaccepted initiations across all ports. */
    std::size_t pendingInits_ = 0;
    StatGroup statGroup_;
    trace::Tracer *tracer_ = nullptr;
    std::uint32_t traceTid_ = 0;
    /** Pre-built per-core counter-track names ("spl0.core2"). */
    std::vector<std::string> queueTrackNames_;
};

} // namespace remap::spl

#endif // REMAP_SPL_FABRIC_HH
