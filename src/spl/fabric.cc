#include "spl/fabric.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/trace.hh"

namespace remap::spl
{

// ---------------------------------------------------------------- //
// ConfigStore
// ---------------------------------------------------------------- //

ConfigId
ConfigStore::add(SplFunction fn)
{
    resultWords_.push_back(
        fn.isReduce() ? std::max<unsigned>(
                            static_cast<unsigned>(fn.outputRegs().size()),
                            fn.numInputWords() / 2)
                      : static_cast<unsigned>(fn.outputRegs().size()));
    fns_.push_back(std::move(fn));
    return static_cast<ConfigId>(fns_.size() - 1);
}

const SplFunction &
ConfigStore::get(ConfigId id) const
{
    REMAP_ASSERT(id < fns_.size(), "bad SPL configuration id");
    return fns_[id];
}

// ---------------------------------------------------------------- //
// ThreadToCoreTable
// ---------------------------------------------------------------- //

ThreadToCoreTable::ThreadToCoreTable(unsigned cores) : entries_(cores)
{
}

void
ThreadToCoreTable::map(unsigned core, ThreadId thread, AppId app)
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    Entry &e = entries_[core];
    REMAP_ASSERT(e.inFlight == 0,
                 "mapping over a core with in-flight SPL results");
    e.valid = true;
    e.thread = thread;
    e.app = app;
    e.inFlight = 0;
    ++changes_;
}

void
ThreadToCoreTable::unmap(unsigned core)
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    Entry &e = entries_[core];
    REMAP_ASSERT(e.inFlight == 0,
                 "unmapping a core with in-flight SPL results");
    e.valid = false;
    e.thread = invalidThread;
    ++changes_;
}

std::optional<unsigned>
ThreadToCoreTable::coreOf(ThreadId thread) const
{
    for (unsigned c = 0; c < entries_.size(); ++c)
        if (entries_[c].valid && entries_[c].thread == thread)
            return c;
    return std::nullopt;
}

std::optional<ThreadId>
ThreadToCoreTable::threadOn(unsigned core) const
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    if (!entries_[core].valid)
        return std::nullopt;
    return entries_[core].thread;
}

unsigned
ThreadToCoreTable::inFlight(unsigned core) const
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    return entries_[core].inFlight;
}

void
ThreadToCoreTable::addInFlight(unsigned core)
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    ++entries_[core].inFlight;
}

void
ThreadToCoreTable::removeInFlight(unsigned core)
{
    REMAP_ASSERT(core < entries_.size(), "core out of range");
    REMAP_ASSERT(entries_[core].inFlight > 0,
                 "retiring an SPL result that is not in flight");
    --entries_[core].inFlight;
}

// ---------------------------------------------------------------- //
// BarrierUnit
// ---------------------------------------------------------------- //

void
BarrierUnit::attachFabrics(std::vector<SplFabric *> fabrics)
{
    fabrics_ = std::move(fabrics);
}

void
BarrierUnit::declare(std::uint32_t id, unsigned total)
{
    REMAP_ASSERT(total > 0, "barrier with zero participants");
    BarrierState &b = barriers_[id];
    if (!b.arrivals.empty())
        --pending_;
    b.total = total;
    b.arrivals.clear();
}

void
BarrierUnit::arrive(std::uint32_t id, ThreadId thread,
                    ClusterId cluster, unsigned local_core,
                    ConfigId cfg, std::vector<std::int32_t> inputs,
                    Cycle now)
{
    prof::PhaseScope phase(prof::Phase::Barrier);
    auto it = barriers_.find(id);
    REMAP_ASSERT(it != barriers_.end(), "arrival at undeclared barrier");
    BarrierState &b = it->second;
    if (b.arrivals.empty()) {
        ++pending_;
        b.firstArrival = now;
    }
    b.arrivals.push_back(
        Arrival{thread, cluster, local_core, std::move(inputs), now});
    ++busUpdates;
    if (tracer_) {
        tracer_->instant(
            trace::Category::Barrier, "arrive", traceTid_, now,
            {trace::Arg{"barrier", std::uint64_t(id)},
             trace::Arg{"thread", std::uint64_t(thread)},
             trace::Arg{"cluster", std::uint64_t(cluster)},
             trace::Arg{"arrived",
                        std::uint64_t(b.arrivals.size())},
             trace::Arg{"total", std::uint64_t(b.total)}});
    }
    if (b.arrivals.size() == b.total)
        release(id, b, cfg);
}

void
BarrierUnit::release(std::uint32_t id, BarrierState &b, ConfigId cfg)
{
    // Group arrivals per cluster; each cluster's fabric performs the
    // regional computation over its local participants.
    std::unordered_map<ClusterId, std::vector<const Arrival *>>
        by_cluster;
    for (const Arrival &a : b.arrivals)
        by_cluster[a.cluster].push_back(&a);

    Cycle last_release = 0;
    for (auto &[cluster, locals] : by_cluster) {
        Cycle release_cycle = 0;
        for (const Arrival &a : b.arrivals) {
            Cycle seen = a.cycle +
                (a.cluster != cluster ? params_.barrierBusLatency : 0);
            release_cycle = std::max(release_cycle, seen);
        }
        last_release = std::max(last_release, release_cycle);
        std::vector<unsigned> cores;
        std::vector<std::vector<std::int32_t>> inputs;
        for (const Arrival *a : locals) {
            cores.push_back(a->localCore);
            inputs.push_back(a->inputs);
        }
        REMAP_ASSERT(cluster < fabrics_.size() && fabrics_[cluster],
                     "barrier arrival from unattached cluster");
        fabrics_[cluster]->enqueueBarrierOp(cfg, std::move(cores),
                                            std::move(inputs),
                                            release_cycle);
    }
    ++barriersCompleted;
    if (tracer_) {
        char name[32];
        std::snprintf(name, sizeof(name), "barrier%u", id);
        tracer_->complete(
            trace::Category::Barrier, name, traceTid_,
            b.firstArrival, last_release - b.firstArrival,
            {trace::Arg{"participants", std::uint64_t(b.total)},
             trace::Arg{"clusters",
                        std::uint64_t(by_cluster.size())}});
    }
    b.arrivals.clear();
    --pending_;
}

void
BarrierUnit::funcArrive(std::uint32_t id, ClusterId cluster,
                        unsigned local_core, ConfigId cfg,
                        std::vector<std::int32_t> inputs)
{
    auto decl = barriers_.find(id);
    REMAP_ASSERT(decl != barriers_.end(),
                 "functional arrival at undeclared barrier");
    BarrierState &b = funcBarriers_[id];
    b.total = decl->second.total;
    b.arrivals.push_back(
        Arrival{invalidThread, cluster, local_core, std::move(inputs),
                0});
    if (b.arrivals.size() < b.total)
        return;

    // Complete functionally: regional result per involved cluster.
    std::unordered_map<ClusterId, std::vector<const Arrival *>>
        by_cluster;
    for (const Arrival &a : b.arrivals)
        by_cluster[a.cluster].push_back(&a);
    const SplFunction &fn = [&]() -> const SplFunction & {
        REMAP_ASSERT(!fabrics_.empty() && fabrics_.front(),
                     "no fabric attached");
        // All fabrics share one ConfigStore; fetch via any of them.
        return fabrics_.front()->configStore().get(cfg);
    }();
    for (auto &[cl, locals] : by_cluster) {
        std::vector<std::vector<std::int32_t>> inputs_vec;
        for (const Arrival *a : locals)
            inputs_vec.push_back(a->inputs);
        std::vector<std::int32_t> result =
            fn.isReduce() && inputs_vec.size() > 1
                ? fn.evaluateReduce(inputs_vec)
                : (fn.isReduce() ? inputs_vec.front()
                                 : fn.evaluate(inputs_vec.front()));
        for (const Arrival *a : locals)
            fabrics_[cl]->funcDeliver(a->localCore, result);
    }
    b.arrivals.clear();
}

// ---------------------------------------------------------------- //
// SplFabric
// ---------------------------------------------------------------- //

SplFabric::SplFabric(ClusterId cluster, const SplParams &params,
                     const ConfigStore *configs, BarrierUnit *barriers)
    : cluster_(cluster),
      params_(params),
      configs_(configs),
      barriers_(barriers),
      threadTable_(params.coresPerCluster),
      ports_(params.coresPerCluster),
      statGroup_("spl" + std::to_string(cluster))
{
    for (auto &port : ports_) {
        port.staged.assign(SplFunction::maxRegs, 0);
        port.stagedValid.assign(SplFunction::maxRegs, false);
        port.funcStaged.assign(SplFunction::maxRegs, 0);
        port.funcStagedValid.assign(SplFunction::maxRegs, false);
    }
    setPartitions(1);

    statGroup_.addCounter("initiations", &initiations);
    statGroup_.addCounter("row_activations", &rowActivations);
    statGroup_.addCounter("input_words", &inputWordsStaged);
    statGroup_.addCounter("output_words", &outputWordsPopped);
    statGroup_.addCounter("barrier_ops", &barrierOps);
    statGroup_.addCounter("config_switches", &configSwitches);
    statGroup_.addCounter("rr_conflicts", &rrConflicts);
    statGroup_.addCounter("virtualized_inits", &virtualizedInits);
    statGroup_.addCounter("parked_results_max", &parkedResultsMax);
    statGroup_.addCounter("parked_result_spl_cycles",
                          &parkedResultSplCycles);
    statGroup_.addCounter("output_full_blocks", &outputFullBlocks);
}

void
SplFabric::setTracer(trace::Tracer *t, std::uint32_t tid)
{
    tracer_ = t;
    traceTid_ = tid;
    queueTrackNames_.clear();
    if (!t)
        return;
    for (unsigned c = 0; c < params_.coresPerCluster; ++c) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "spl%u.core%u", cluster_, c);
        queueTrackNames_.emplace_back(buf);
    }
}

void
SplFabric::traceQueueDepth(unsigned core, Cycle now)
{
    const CorePort &port = ports_[core];
    tracer_->counter(
        trace::Category::Queue, queueTrackNames_[core].c_str(),
        traceTid_, now,
        {trace::Arg{"pending_inits",
                    std::uint64_t(port.pending.size())},
         trace::Arg{"output_words",
                    std::uint64_t(port.output.size())}});
}

void
SplFabric::traceAccept(const char *name, unsigned src_core,
                       Cycle start, Cycle complete, unsigned rows,
                       unsigned ii, bool is_barrier)
{
    tracer_->complete(
        trace::Category::Fabric, name, traceTid_, start,
        complete - start,
        {trace::Arg{"src_core", std::uint64_t(src_core)},
         trace::Arg{"rows", std::uint64_t(rows)},
         trace::Arg{"ii", std::uint64_t(ii)},
         trace::Arg{"kind", is_barrier ? "barrier" : "init"}});
    if (ii > 1) {
        tracer_->instant(
            trace::Category::Fabric, "virtualization_stall",
            traceTid_, start,
            {trace::Arg{"rows", std::uint64_t(rows)},
             trace::Arg{"ii", std::uint64_t(ii)}});
    }
}

void
SplFabric::setPartitions(unsigned n)
{
    REMAP_ASSERT(n == 1 || n == 2 || n == 4,
                 "partitions must be 1, 2 or 4");
    REMAP_ASSERT(params_.coresPerCluster % n == 0,
                 "cores must divide evenly among partitions");
    partitions_.clear();
    const unsigned cores_per = params_.coresPerCluster / n;
    const unsigned rows_per = params_.physRows / n;
    for (unsigned p = 0; p < n; ++p) {
        Partition part;
        part.firstCore = p * cores_per;
        part.numCores = cores_per;
        part.rows = rows_per;
        partitions_.push_back(part);
    }
}

SplFabric::Partition &
SplFabric::partitionOf(unsigned core)
{
    for (Partition &p : partitions_)
        if (core >= p.firstCore && core < p.firstCore + p.numCores)
            return p;
    REMAP_PANIC("core %u not in any partition", core);
}

bool
SplFabric::canLoad(unsigned core) const
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    return true; // backpressure applies at initiation, not staging
}

void
SplFabric::load(unsigned core, unsigned word_idx, std::int32_t value)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    REMAP_ASSERT(word_idx < SplFunction::maxRegs,
                 "staged word index out of range");
    CorePort &port = ports_[core];
    port.staged[word_idx] = value;
    port.stagedValid[word_idx] = true;
    ++inputWordsStaged;
}

std::vector<std::int32_t>
SplFabric::sealStaged(unsigned core)
{
    CorePort &port = ports_[core];
    unsigned high = 0;
    for (unsigned i = 0; i < SplFunction::maxRegs; ++i)
        if (port.stagedValid[i])
            high = i + 1;
    std::vector<std::int32_t> words(port.staged.begin(),
                                    port.staged.begin() + high);
    std::fill(port.stagedValid.begin(), port.stagedValid.end(), false);
    return words;
}

bool
SplFabric::canInit(unsigned core, std::int64_t dest_thread) const
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    const CorePort &port = ports_[core];
    if (port.pending.size() >= params_.pendingInitsPerCore)
        return false;
    if (dest_thread >= 0 &&
        !threadTable_.coreOf(static_cast<ThreadId>(dest_thread)))
        return false; // destination absent: block (Section II-B.1)
    return true;
}

void
SplFabric::init(unsigned core, ConfigId cfg, std::int64_t dest_thread,
                Cycle now)
{
    REMAP_ASSERT(canInit(core, dest_thread), "init while not ready");
    CorePort &port = ports_[core];
    PendingInit p;
    p.cfg = cfg;
    p.destThread = dest_thread;
    p.inputs = sealStaged(core);
    p.readyCycle = now;
    port.pending.push_back(std::move(p));
    ++port.changes;
    ++pendingInits_;

    unsigned dest_core = core;
    if (dest_thread >= 0)
        dest_core =
            *threadTable_.coreOf(static_cast<ThreadId>(dest_thread));
    threadTable_.addInFlight(dest_core);
    if (tracer_)
        traceQueueDepth(core, now);
}

bool
SplFabric::canBar(unsigned core) const
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    return barriers_ != nullptr;
}

void
SplFabric::bar(unsigned core, ConfigId cfg, std::uint32_t barrier_id,
               Cycle now)
{
    REMAP_ASSERT(barriers_, "barrier arrival without a BarrierUnit");
    auto thread = threadTable_.threadOn(core);
    REMAP_ASSERT(thread, "barrier arrival from unmapped core");
    barriers_->arrive(barrier_id, *thread, cluster_, core, cfg,
                      sealStaged(core), now);
}

bool
SplFabric::outputReady(unsigned core, Cycle now) const
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    const CorePort &port = ports_[core];
    return !port.output.empty() && port.output.front().ready <= now;
}

std::int32_t
SplFabric::popOutput(unsigned core, Cycle now)
{
    CorePort &port = ports_[core];
    REMAP_ASSERT(!port.output.empty(), "pop from empty output queue");
    const OutputWord head = port.output.front();
    port.output.pop_front();
    ++port.changes;
    port.popped = true;
    ++outputWordsPopped;
    if (head.last)
        threadTable_.removeInFlight(core);
    if (tracer_)
        traceQueueDepth(core, now);
    return head.value;
}

std::vector<std::int32_t>
SplFabric::sealFuncStaged(unsigned core)
{
    CorePort &port = ports_[core];
    unsigned high = 0;
    for (unsigned i = 0; i < SplFunction::maxRegs; ++i)
        if (port.funcStagedValid[i])
            high = i + 1;
    std::vector<std::int32_t> words(port.funcStaged.begin(),
                                    port.funcStaged.begin() + high);
    std::fill(port.funcStagedValid.begin(), port.funcStagedValid.end(),
              false);
    return words;
}

void
SplFabric::funcLoad(unsigned core, unsigned word_idx,
                    std::int32_t value)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    REMAP_ASSERT(word_idx < SplFunction::maxRegs,
                 "staged word index out of range");
    ports_[core].funcStaged[word_idx] = value;
    ports_[core].funcStagedValid[word_idx] = true;
}

void
SplFabric::funcInit(unsigned core, ConfigId cfg,
                    std::int64_t dest_thread)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    const SplFunction &fn = configs_->get(cfg);
    std::vector<std::int32_t> result =
        fn.evaluate(sealFuncStaged(core));
    unsigned dest = core;
    if (dest_thread >= 0) {
        auto d = threadTable_.coreOf(
            static_cast<ThreadId>(dest_thread));
        if (d)
            dest = *d;
    }
    funcDeliver(dest, result);
}

void
SplFabric::funcBar(unsigned core, ConfigId cfg,
                   std::uint32_t barrier_id)
{
    REMAP_ASSERT(barriers_, "functional barrier without BarrierUnit");
    barriers_->funcArrive(barrier_id, cluster_, core, cfg,
                          sealFuncStaged(core));
}

std::optional<std::int32_t>
SplFabric::funcPop(unsigned core)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    CorePort &port = ports_[core];
    if (port.funcOutput.empty())
        return std::nullopt;
    std::int32_t v = port.funcOutput.front();
    port.funcOutput.pop_front();
    ++port.changes;
    return v;
}

void
SplFabric::funcDeliver(unsigned core,
                       const std::vector<std::int32_t> &words)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    CorePort &port = ports_[core];
    for (std::int32_t w : words)
        port.funcOutput.push_back(w);
    ++port.changes;
}

void
SplFabric::deliverOutput(unsigned core,
                         const std::vector<std::int32_t> &words,
                         Cycle when)
{
    REMAP_ASSERT(core < ports_.size(), "core out of range");
    CorePort &port = ports_[core];
    for (std::int32_t w : words)
        port.output.push_back(OutputWord{w, when, false});
    ++port.changes;
    if (words.empty())
        threadTable_.removeInFlight(core); // nothing left to pop
    else
        port.output.back().last = true;
    if (tracer_)
        traceQueueDepth(core, when);
}

void
SplFabric::enqueueBarrierOp(
    ConfigId cfg, std::vector<unsigned> local_cores,
    std::vector<std::vector<std::int32_t>> inputs, Cycle ready)
{
    InFlightOp op;
    op.cfg = cfg;
    op.srcCore = local_cores.front();
    op.destCores = std::move(local_cores);
    op.inputs = std::move(inputs);
    op.isBarrier = true;
    op.completeCycle = ready; // interpreted as ready-for-accept
    barrierQueue_.push_back(std::move(op));
    // Barrier results are in-flight state for each participant.
    for (unsigned c : barrierQueue_.back().destCores)
        threadTable_.addInFlight(c);
}

namespace
{

/** Min-heap order on (completeCycle, seq). */
template <typename Op>
bool
completesLater(const Op &a, const Op &b)
{
    return a.completeCycle != b.completeCycle
               ? a.completeCycle > b.completeCycle
               : a.seq > b.seq;
}

} // namespace

void
SplFabric::launch(InFlightOp op)
{
    op.seq = nextSeq_++;
    pipeline_.push_back(std::move(op));
    std::push_heap(pipeline_.begin(), pipeline_.end(),
                   completesLater<InFlightOp>);
}

bool
SplFabric::hasRoom(const InFlightOp &op) const
{
    // Backpressure: results wait (queued in the fabric, as the paper
    // describes) until every destination output queue has room for
    // every result word.
    const unsigned words = configs_->resultWords(op.cfg);
    for (unsigned c : op.destCores)
        if (ports_[c].output.size() + words > params_.outputQueueWords)
            return false;
    return true;
}

void
SplFabric::deliver(const InFlightOp &op, Cycle when)
{
    const SplFunction &fn = configs_->get(op.cfg);
    if (op.isBarrier) {
        std::vector<std::int32_t> result =
            fn.isReduce() && op.inputs.size() > 1
                ? fn.evaluateReduce(op.inputs)
                : (fn.isReduce() ? op.inputs.front()
                                 : fn.evaluate(op.inputs.front()));
        for (unsigned c : op.destCores)
            deliverOutput(c, result, when);
    } else {
        deliverOutput(op.destCores.front(), fn.evaluate(op.inputs.front()),
                      when);
    }
}

std::size_t
SplFabric::park(InFlightOp op)
{
    parkedResultsMax.raiseTo(++parkedCount_);
    if (!op.blocked) {
        op.blocked = true;
        ++outputFullBlocks;
    }
    const auto by_seq = [](std::uint64_t seq, const InFlightOp &o) {
        return seq < o.seq;
    };
    if (op.destCores.size() > 1) {
        auto at = std::upper_bound(parkedShared_.begin(),
                                   parkedShared_.end(), op.seq, by_seq);
        return static_cast<std::size_t>(
            parkedShared_.insert(at, std::move(op)) -
            parkedShared_.begin());
    }
    CorePort &port = ports_[op.destCores.front()];
    const unsigned words = configs_->resultWords(op.cfg);
    if (words >= port.parkedByWidth.size())
        port.parkedByWidth.resize(words + 1, 0);
    if (port.parked.empty() || words < port.parkedMinWidth)
        port.parkedMinWidth = words;
    ++port.parkedByWidth[words];
    auto at = std::upper_bound(port.parked.begin(), port.parked.end(),
                               op.seq, by_seq);
    return static_cast<std::size_t>(
        port.parked.insert(at, std::move(op)) - port.parked.begin());
}

void
SplFabric::unparkAt(unsigned core, std::size_t pos)
{
    CorePort &port = ports_[core];
    const unsigned words = configs_->resultWords(port.parked[pos].cfg);
    port.parked.erase(port.parked.begin() +
                      static_cast<std::ptrdiff_t>(pos));
    --parkedCount_;
    if (--port.parkedByWidth[words] == 0 &&
        words == port.parkedMinWidth && !port.parked.empty()) {
        while (port.parkedByWidth[port.parkedMinWidth] == 0)
            ++port.parkedMinWidth;
    }
}

void
SplFabric::completeOps(Cycle now)
{
    // Parked results were due again at the boundary after the last
    // pass, exactly as if each had been retried (and failed) there.
    const Cycle parked_when = lastBoundary_ + params_.coreCyclesPerSplCycle;
    lastBoundary_ = now;

    ready_.clear();
    while (!pipeline_.empty() && pipeline_.front().completeCycle <= now) {
        std::pop_heap(pipeline_.begin(), pipeline_.end(),
                      completesLater<InFlightOp>);
        ready_.push_back(std::move(pipeline_.back()));
        pipeline_.pop_back();
    }
    if (ready_.size() > 1)
        std::sort(ready_.begin(), ready_.end(),
                  [](const InFlightOp &a, const InFlightOp &b) {
                      return a.seq < b.seq;
                  });

    // Room in an output queue only grows on a pop, so a parked result
    // can only fit after its destination popped. Retry exactly those
    // lists, merged with the newly complete ops in acceptance order:
    // each result gets its queue first-fit, in that order.
    bool any_pop = false;
    cursor_.assign(ports_.size(), 0);
    for (const CorePort &port : ports_)
        any_pop = any_pop || port.popped;
    std::size_t shared = 0;
    std::size_t next_ready = 0;
    constexpr unsigned fromReady = ~0u, fromShared = ~0u - 1;
    for (;;) {
        std::uint64_t best = ~std::uint64_t(0);
        unsigned from = fromReady;
        bool found = false;
        if (next_ready < ready_.size()) {
            best = ready_[next_ready].seq;
            found = true;
        }
        if (any_pop && shared < parkedShared_.size() &&
            parkedShared_[shared].seq < best) {
            best = parkedShared_[shared].seq;
            from = fromShared;
            found = true;
        }
        for (unsigned c = 0; c < ports_.size(); ++c) {
            const CorePort &port = ports_[c];
            // A list is done once its queue's free words drop below
            // the narrowest result parked there.
            if (port.popped && cursor_[c] < port.parked.size() &&
                port.output.size() + port.parkedMinWidth <=
                    params_.outputQueueWords &&
                port.parked[cursor_[c]].seq < best) {
                best = port.parked[cursor_[c]].seq;
                from = c;
                found = true;
            }
        }
        if (!found)
            break;

        if (from == fromReady) {
            InFlightOp &op = ready_[next_ready++];
            if (hasRoom(op)) {
                deliver(op, op.completeCycle);
                continue;
            }
            const bool multi = op.destCores.size() > 1;
            const unsigned dest = op.destCores.front();
            const std::size_t pos = park(std::move(op));
            // Keep the cursor past it: it was tried this pass.
            std::size_t &cur = multi ? shared : cursor_[dest];
            if (pos <= cur)
                ++cur;
        } else if (from == fromShared) {
            if (hasRoom(parkedShared_[shared])) {
                deliver(parkedShared_[shared], parked_when);
                parkedShared_.erase(parkedShared_.begin() +
                                    static_cast<std::ptrdiff_t>(shared));
                --parkedCount_;
            } else {
                ++shared;
            }
        } else {
            const InFlightOp &op = ports_[from].parked[cursor_[from]];
            if (hasRoom(op)) {
                deliver(op, parked_when);
                unparkAt(from, cursor_[from]);
            } else {
                ++cursor_[from];
            }
        }
    }

    for (CorePort &port : ports_)
        port.popped = false;
    parkedResultSplCycles += parkedCount_;
}

Cycle
SplFabric::configSwitchCost(Partition &part, ConfigId cfg,
                            unsigned rows)
{
    auto it = std::find(part.residentCfgs.begin(),
                        part.residentCfgs.end(), cfg);
    if (it != part.residentCfgs.end()) {
        // Already resident: refresh LRU position, no load cost.
        part.residentCfgs.erase(it);
        part.residentCfgs.push_back(cfg);
        return 0;
    }
    if (part.residentCfgs.size() >=
        params_.residentConfigsPerPartition)
        part.residentCfgs.erase(part.residentCfgs.begin());
    part.residentCfgs.push_back(cfg);
    ++configSwitches;
    return Cycle(rows) * params_.configLoadSplCyclesPerRow *
           params_.coreCyclesPerSplCycle;
}

void
SplFabric::acceptPending(Partition &part, Cycle now)
{
    if (now < part.nextAccept)
        return;

    // Barrier ops take priority (they gate many threads). A barrier op
    // is handled by the partition containing its first core.
    if (!barrierQueue_.empty()) {
        InFlightOp &bop = barrierQueue_.front();
        Partition &home = partitionOf(bop.srcCore);
        if (&home == &part && bop.completeCycle <= now) {
            const SplFunction &fn = configs_->get(bop.cfg);
            unsigned rows = fn.isReduce()
                ? fn.reduceRows(static_cast<unsigned>(
                      bop.inputs.size()))
                : fn.rows();
            rows = std::max(rows, 1u);
            Cycle start =
                now + configSwitchCost(part, bop.cfg, fn.rows());
            unsigned ii = (rows + part.rows - 1) / part.rows;
            if (ii > 1)
                ++virtualizedInits;
            InFlightOp op = std::move(bop);
            barrierQueue_.pop_front();
            op.completeCycle = start +
                Cycle(rows + params_.outputTransferSplCycles) *
                    params_.coreCyclesPerSplCycle;
            part.nextAccept = start +
                Cycle(std::max(1u, ii)) *
                    params_.coreCyclesPerSplCycle;
            rowActivations += rows;
            ++initiations;
            ++barrierOps;
            if (tracer_)
                traceAccept(fn.name().c_str(), op.srcCore, start,
                            op.completeCycle, rows, ii, true);
            launch(std::move(op));
            return;
        }
    }

    // Round-robin over the partition's cores for a ready initiation.
    unsigned candidates = 0;
    for (unsigned i = 0; i < part.numCores; ++i) {
        unsigned c = part.firstCore + i;
        if (!ports_[c].pending.empty() &&
            ports_[c].pending.front().readyCycle <= now)
            ++candidates;
    }
    if (candidates == 0)
        return;
    rrConflicts += candidates - 1;
    if (tracer_ && candidates > 1) {
        tracer_->instant(
            trace::Category::Fabric, "rr_conflict", traceTid_, now,
            {trace::Arg{"candidates", std::uint64_t(candidates)}});
    }

    for (unsigned i = 0; i < part.numCores; ++i) {
        unsigned idx = (part.rrNext + i) % part.numCores;
        unsigned c = part.firstCore + idx;
        CorePort &port = ports_[c];
        if (port.pending.empty() ||
            port.pending.front().readyCycle > now)
            continue;

        PendingInit p = std::move(port.pending.front());
        port.pending.pop_front();
        ++port.changes;
        --pendingInits_;
        part.rrNext = (idx + 1) % part.numCores;

        const SplFunction &fn = configs_->get(p.cfg);
        unsigned rows = std::max(fn.rows(), 1u);
        Cycle start = now + configSwitchCost(part, p.cfg, rows);
        unsigned ii = (rows + part.rows - 1) / part.rows;
        if (ii > 1)
            ++virtualizedInits;

        InFlightOp op;
        op.cfg = p.cfg;
        op.srcCore = c;
        unsigned dest = c;
        if (p.destThread >= 0) {
            auto d = threadTable_.coreOf(
                static_cast<ThreadId>(p.destThread));
            if (d)
                dest = *d;
        }
        op.destCores = {dest};
        op.inputs = {std::move(p.inputs)};
        op.isBarrier = false;
        op.completeCycle = start +
            Cycle(rows + params_.outputTransferSplCycles) *
                params_.coreCyclesPerSplCycle;
        part.nextAccept = start +
            Cycle(std::max(1u, ii)) * params_.coreCyclesPerSplCycle;
        rowActivations += rows;
        ++initiations;
        if (tracer_) {
            traceAccept(fn.name().c_str(), c, start,
                        op.completeCycle, rows, ii, false);
            traceQueueDepth(c, now);
        }
        launch(std::move(op));
        return;
    }
}

void
SplFabric::tick(Cycle now)
{
    if (now % params_.coreCyclesPerSplCycle != 0)
        return;
    completeOps(now);
    for (Partition &part : partitions_)
        acceptPending(part, now);
}

Cycle
SplFabric::outputHeadReadyCycle(unsigned core) const
{
    const CorePort &port = ports_[core];
    return port.output.empty() ? neverCycle
                               : port.output.front().ready;
}

// ---------------------------------------------------------------- //
// Snapshot support
// ---------------------------------------------------------------- //

namespace
{

void
saveWords(snap::Serializer &s, const std::vector<std::int32_t> &v)
{
    s.u32(static_cast<std::uint32_t>(v.size()));
    for (std::int32_t w : v)
        s.i32(w);
}

std::vector<std::int32_t>
restoreWords(snap::Deserializer &d)
{
    std::vector<std::int32_t> v(d.count(4));
    for (auto &w : v)
        w = d.i32();
    return v;
}

} // namespace

void
ThreadToCoreTable::save(snap::Serializer &s) const
{
    s.section("tct");
    s.u32(static_cast<std::uint32_t>(entries_.size()));
    for (const Entry &e : entries_) {
        s.boolean(e.valid);
        s.u32(e.thread);
        s.u32(e.app);
        s.u32(e.inFlight);
    }
}

void
ThreadToCoreTable::restore(snap::Deserializer &d)
{
    if (!d.section("tct"))
        return;
    if (d.count(13) != entries_.size()) {
        d.fail("thread table size mismatch");
        return;
    }
    for (Entry &e : entries_) {
        e.valid = d.boolean();
        e.thread = d.u32();
        e.app = d.u32();
        e.inFlight = d.u32();
    }
}

void
BarrierUnit::save(snap::Serializer &s) const
{
    s.section("barrierunit");
    barriersCompleted.save(s);
    busUpdates.save(s);
    s.u64(pending_);
    // Canonical order: instances sorted by barrier id (the maps are
    // unordered, and iteration order must not leak into the stream).
    for (const auto *map : {&barriers_, &funcBarriers_}) {
        std::vector<std::uint32_t> ids;
        ids.reserve(map->size());
        for (const auto &[id, b] : *map)
            ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        s.u32(static_cast<std::uint32_t>(ids.size()));
        for (std::uint32_t id : ids) {
            const BarrierState &b = map->at(id);
            s.u32(id);
            s.u32(b.total);
            s.u64(b.firstArrival);
            s.u32(static_cast<std::uint32_t>(b.arrivals.size()));
            for (const Arrival &a : b.arrivals) {
                s.u32(a.thread);
                s.u32(a.cluster);
                s.u32(a.localCore);
                s.u64(a.cycle);
                saveWords(s, a.inputs);
            }
        }
    }
}

void
BarrierUnit::restore(snap::Deserializer &d)
{
    if (!d.section("barrierunit"))
        return;
    barriersCompleted.restore(d);
    busUpdates.restore(d);
    pending_ = d.u64();
    for (auto *map : {&barriers_, &funcBarriers_}) {
        map->clear();
        const std::uint32_t n = d.count(16);
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            const std::uint32_t id = d.u32();
            BarrierState &b = (*map)[id];
            b.total = d.u32();
            b.firstArrival = d.u64();
            const std::uint32_t arrivals = d.count(24);
            for (std::uint32_t j = 0; j < arrivals && d.ok(); ++j) {
                Arrival a;
                a.thread = d.u32();
                a.cluster = d.u32();
                a.localCore = d.u32();
                a.cycle = d.u64();
                a.inputs = restoreWords(d);
                b.arrivals.push_back(std::move(a));
            }
        }
    }
}

void
SplFabric::save(snap::Serializer &s) const
{
    s.section("fabric");
    s.u32(cluster_);
    threadTable_.save(s);

    s.u32(static_cast<std::uint32_t>(ports_.size()));
    for (const CorePort &port : ports_) {
        for (unsigned i = 0; i < SplFunction::maxRegs; ++i) {
            s.i32(port.staged[i]);
            s.boolean(port.stagedValid[i]);
            s.i32(port.funcStaged[i]);
            s.boolean(port.funcStagedValid[i]);
        }
        s.u32(static_cast<std::uint32_t>(port.pending.size()));
        for (const PendingInit &p : port.pending) {
            s.u32(p.cfg);
            s.i64(p.destThread);
            s.u64(p.readyCycle);
            saveWords(s, p.inputs);
        }
        s.u32(static_cast<std::uint32_t>(port.output.size()));
        for (const OutputWord &o : port.output) {
            s.i32(o.value);
            s.u64(o.ready);
            s.boolean(o.last);
        }
        s.u32(static_cast<std::uint32_t>(port.funcOutput.size()));
        for (std::int32_t w : port.funcOutput)
            s.i32(w);
    }

    s.u32(static_cast<std::uint32_t>(partitions_.size()));
    for (const Partition &part : partitions_) {
        s.u32(part.firstCore);
        s.u32(part.numCores);
        s.u32(part.rows);
        s.u64(part.nextAccept);
        s.u32(part.rrNext);
        s.u32(static_cast<std::uint32_t>(part.residentCfgs.size()));
        for (ConfigId cfg : part.residentCfgs)
            s.u32(cfg);
    }

    auto save_op = [&s](const InFlightOp &op, Cycle complete) {
        s.u32(op.cfg);
        s.u32(op.srcCore);
        s.boolean(op.isBarrier);
        s.boolean(op.blocked);
        s.u64(complete);
        s.u32(static_cast<std::uint32_t>(op.destCores.size()));
        for (unsigned c : op.destCores)
            s.u32(c);
        s.u32(static_cast<std::uint32_t>(op.inputs.size()));
        for (const auto &words : op.inputs)
            saveWords(s, words);
    };
    // Every accepted op in acceptance order; a parked op is due again
    // at the boundary after the last pass.
    std::vector<std::pair<const InFlightOp *, Cycle>> in_flight;
    in_flight.reserve(pipeline_.size() + parkedCount_);
    for (const InFlightOp &op : pipeline_)
        in_flight.emplace_back(&op, op.completeCycle);
    const Cycle parked_when =
        lastBoundary_ + params_.coreCyclesPerSplCycle;
    for (const CorePort &port : ports_)
        for (const InFlightOp &op : port.parked)
            in_flight.emplace_back(&op, parked_when);
    for (const InFlightOp &op : parkedShared_)
        in_flight.emplace_back(&op, parked_when);
    std::sort(in_flight.begin(), in_flight.end(),
              [](const auto &a, const auto &b) {
                  return a.first->seq < b.first->seq;
              });
    s.u32(static_cast<std::uint32_t>(in_flight.size()));
    for (const auto &[op, complete] : in_flight)
        save_op(*op, complete);
    s.u32(static_cast<std::uint32_t>(barrierQueue_.size()));
    for (const InFlightOp &op : barrierQueue_)
        save_op(op, op.completeCycle);

    statGroup_.save(s);
}

void
SplFabric::restore(snap::Deserializer &d)
{
    if (!d.section("fabric"))
        return;
    if (d.u32() != cluster_) {
        d.fail("cluster id mismatch");
        return;
    }
    threadTable_.restore(d);

    if (d.count() != ports_.size()) {
        d.fail("port count mismatch");
        return;
    }
    for (CorePort &port : ports_) {
        for (unsigned i = 0; i < SplFunction::maxRegs; ++i) {
            port.staged[i] = d.i32();
            port.stagedValid[i] = d.boolean();
            port.funcStaged[i] = d.i32();
            port.funcStagedValid[i] = d.boolean();
        }
        port.pending.clear();
        const std::uint32_t pending = d.count(24);
        for (std::uint32_t i = 0; i < pending && d.ok(); ++i) {
            PendingInit p;
            p.cfg = d.u32();
            p.destThread = d.i64();
            p.readyCycle = d.u64();
            p.inputs = restoreWords(d);
            port.pending.push_back(std::move(p));
        }
        port.output.clear();
        const std::uint32_t outputs = d.count(13);
        for (std::uint32_t i = 0; i < outputs && d.ok(); ++i) {
            OutputWord o;
            o.value = d.i32();
            o.ready = d.u64();
            o.last = d.boolean();
            port.output.push_back(o);
        }
        port.funcOutput.clear();
        const std::uint32_t func_outputs = d.count(4);
        for (std::uint32_t i = 0; i < func_outputs && d.ok(); ++i)
            port.funcOutput.push_back(d.i32());
        ++port.changes;
    }

    if (d.count() != partitions_.size()) {
        d.fail("partition count mismatch");
        return;
    }
    for (Partition &part : partitions_) {
        if (d.u32() != part.firstCore || d.u32() != part.numCores ||
            d.u32() != part.rows) {
            d.fail("partition geometry mismatch");
            return;
        }
        part.nextAccept = d.u64();
        part.rrNext = d.u32();
        part.residentCfgs.resize(d.count(4));
        for (ConfigId &cfg : part.residentCfgs)
            cfg = d.u32();
    }

    auto restore_op = [&d](InFlightOp &op) {
        op.cfg = d.u32();
        op.srcCore = d.u32();
        op.isBarrier = d.boolean();
        op.blocked = d.boolean();
        op.completeCycle = d.u64();
        op.destCores.resize(d.count(4));
        for (unsigned &c : op.destCores)
            c = d.u32();
        op.inputs.resize(d.count(4));
        for (auto &words : op.inputs)
            words = restoreWords(d);
    };
    // Every op goes back into the heap; those that were parked are due
    // at their saved cycle and park again if still blocked.
    for (CorePort &port : ports_) {
        port.parked.clear();
        port.parkedByWidth.clear();
        port.popped = false;
    }
    parkedShared_.clear();
    parkedCount_ = 0;
    pipeline_.clear();
    pipeline_.resize(d.count(22));
    nextSeq_ = 0;
    for (InFlightOp &op : pipeline_) {
        restore_op(op);
        op.seq = nextSeq_++;
    }
    std::make_heap(pipeline_.begin(), pipeline_.end(),
                   completesLater<InFlightOp>);
    barrierQueue_.clear();
    barrierQueue_.resize(d.count(22));
    for (InFlightOp &op : barrierQueue_)
        restore_op(op);

    // pendingInits_ mirrors the per-port queues; recompute rather
    // than trust the stream.
    pendingInits_ = 0;
    for (const CorePort &port : ports_)
        pendingInits_ += port.pending.size();

    statGroup_.restore(d);
}

} // namespace remap::spl
