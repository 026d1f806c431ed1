#include "core/system.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"

namespace remap::sys
{

SystemConfig
SystemConfig::splCluster(unsigned partitions)
{
    return splClusters(1, partitions);
}

SystemConfig
SystemConfig::splClusters(unsigned n, unsigned partitions)
{
    SystemConfig cfg;
    for (unsigned i = 0; i < n; ++i) {
        ClusterConfig c;
        c.coreType = cpu::CoreParams::ooo1();
        c.numCores = 4;
        c.hasSpl = true;
        c.splPartitions = partitions;
        cfg.clusters.push_back(c);
    }
    return cfg;
}

SystemConfig
SystemConfig::ooo2Cluster(unsigned n)
{
    SystemConfig cfg;
    ClusterConfig c;
    c.coreType = cpu::CoreParams::ooo2();
    c.numCores = n;
    c.hasSpl = false;
    cfg.clusters.push_back(c);
    return cfg;
}

SystemConfig
SystemConfig::ooo2Comm(unsigned n)
{
    SystemConfig cfg;
    ClusterConfig c;
    c.coreType = cpu::CoreParams::ooo2();
    c.numCores = n;
    c.hasSpl = true;
    c.fabricIsIdealComm = true;
    c.splParams.coresPerCluster = n;
    c.splParams.coreCyclesPerSplCycle = 1; // full core clock
    c.splParams.outputTransferSplCycles = 0;
    c.splParams.configLoadSplCyclesPerRow = 0;
    c.splParams.barrierBusLatency = 0;
    cfg.clusters.push_back(c);
    return cfg;
}

SystemConfig
SystemConfig::ooo1Cluster(unsigned n)
{
    SystemConfig cfg;
    ClusterConfig c;
    c.coreType = cpu::CoreParams::ooo1();
    c.numCores = n;
    c.hasSpl = false;
    cfg.clusters.push_back(c);
    return cfg;
}

System::System(const SystemConfig &config)
    : config_(config), barrierUnit_(barrierParams_)
{
    REMAP_ASSERT(!config.clusters.empty(), "system with no clusters");

    // REMAP_NO_LEAP=1 pins the run loop to the per-cycle reference,
    // where no core sleeps; the differential tests compare it against
    // the default loop for bit-identity (DESIGN.md §10).
    sleepEnabled_ = !env::noLeap();

    unsigned total_cores = 0;
    for (const ClusterConfig &c : config.clusters)
        total_cores += c.numCores;
    mem_ = std::make_unique<mem::MemSystem>(total_cores,
                                            config.memParams);

    CoreId next_core = 0;
    ClusterId next_fabric = 0;
    for (const ClusterConfig &c : config.clusters) {
        clusterOfFirstCore_.push_back(next_core);
        spl::SplFabric *fabric = nullptr;
        if (c.hasSpl) {
            REMAP_ASSERT(c.numCores == c.splParams.coresPerCluster,
                         "SPL cluster core count must match fabric "
                         "sharing degree");
            fabrics_.push_back(std::make_unique<spl::SplFabric>(
                next_fabric, c.splParams, &configs_, &barrierUnit_));
            fabric = fabrics_.back().get();
            fabric->setPartitions(c.splPartitions);
            fabricIsIdeal_.push_back(c.fabricIsIdealComm);
            ++next_fabric;
        }
        for (unsigned i = 0; i < c.numCores; ++i) {
            cores_.push_back(std::make_unique<cpu::OooCore>(
                next_core, c.coreType, mem_.get(), &image_));
            coreFabric_.push_back(fabric);
            coreSlot_.push_back(i);
            coreIsOoo2_.push_back(c.coreType.issueWidth > 1);
            if (fabric)
                cores_.back()->attachSpl(fabric, i);
            ++next_core;
        }
    }

    std::vector<spl::SplFabric *> raw;
    raw.reserve(fabrics_.size());
    for (auto &f : fabrics_)
        raw.push_back(f.get());
    barrierUnit_.attachFabrics(std::move(raw));

    coreDone_.assign(cores_.size(), 1); // no threads bound yet
    coreWake_.assign(cores_.size(), 0);
    coreSleptThrough_.assign(cores_.size(), 0);
    coreSleptOn_.assign(cores_.size(), 0);
    coreSleepCause_.assign(cores_.size(), SelfTimed);

    if (const std::string base = env::traceFile(); !base.empty()) {
        const Cycle period = env::tracePeriod(10'000);
        // Under the parallel harness many Systems are constructed
        // concurrently; suffix the shared REMAP_TRACE path so each
        // instance writes its own file. An explicit enableTracing()
        // call uses its path verbatim.
        enableTracing(trace::uniqueTracePath(base), period);
    }
}

ConfigId
System::registerFunction(spl::SplFunction fn)
{
    return configs_.add(std::move(fn));
}

void
System::declareBarrier(std::uint32_t id, unsigned total)
{
    barrierUnit_.declare(id, total);
}

cpu::ThreadContext &
System::createThread(const isa::Program *prog)
{
    cpu::ThreadContext ctx;
    ctx.id = static_cast<ThreadId>(threads_.size());
    ctx.reset(prog);
    threads_.push_back(ctx);
    threadCore_.push_back(invalidCore);
    return threads_.back();
}

void
System::mapThread(ThreadId tid, CoreId core_id)
{
    REMAP_ASSERT(tid < threads_.size(), "unknown thread");
    REMAP_ASSERT(core_id < cores_.size(), "unknown core");
    cpu::ThreadContext &ctx = threads_[tid];
    cores_[core_id]->bindThread(&ctx);
    threadCore_[tid] = core_id;
    noteCoreActivity(core_id);
    if (spl::SplFabric *fabric = coreFabric_[core_id])
        fabric->threadTable().map(coreSlot_[core_id], ctx.id,
                                  ctx.app);
}

void
System::noteCoreActivity(CoreId core)
{
    const char done = cores_[core]->done() ? 1 : 0;
    if (done == coreDone_[core])
        return;
    coreDone_[core] = done;
    if (done)
        --activeCores_;
    else
        ++activeCores_;
}

bool
System::isOoo2(CoreId core) const
{
    return coreIsOoo2_.at(core);
}

bool
System::enableTracing(const std::string &path, Cycle sample_period)
{
    disableTracing();
    tracer_ = std::make_unique<trace::Tracer>();
    if (!tracer_->open(path)) {
        REMAP_WARN("cannot open trace file '%s'; tracing disabled",
                   path.c_str());
        tracer_.reset();
        return false;
    }
    trace::Tracer *t = tracer_.get();
    t->processName("remap");

    // Track layout: cores first, then fabrics, then the barrier unit.
    char buf[64];
    for (auto &core : cores_) {
        std::snprintf(buf, sizeof(buf), "core%u (%s)", core->id(),
                      core->params().name.c_str());
        t->threadName(core->id(), buf);
        core->setTracer(t, core->id());
    }
    const std::uint32_t fabric_base = numCores();
    for (unsigned f = 0; f < fabrics_.size(); ++f) {
        std::snprintf(buf, sizeof(buf), "spl%u fabric",
                      fabrics_[f]->cluster());
        t->threadName(fabric_base + f, buf);
        fabrics_[f]->setTracer(t, fabric_base + f);
    }
    const std::uint32_t barrier_tid = fabric_base + numFabrics();
    t->threadName(barrier_tid, "barrier unit");
    barrierUnit_.setTracer(t, barrier_tid);

    samplePeriod_ = sample_period;
    if (samplePeriod_ > 0) {
        registerSamplers();
        nextSample_ = cycle_ + samplePeriod_;
    } else {
        nextSample_ = ~Cycle(0);
    }
    return true;
}

void
System::disableTracing()
{
    if (!tracer_)
        return;
    for (auto &core : cores_)
        core->setTracer(nullptr, 0);
    for (auto &fabric : fabrics_)
        fabric->setTracer(nullptr, 0);
    barrierUnit_.setTracer(nullptr, 0);
    tracer_->close();
    tracer_.reset();
    sampler_ = trace::CounterSampler{};
    samplePeriod_ = 0;
    nextSample_ = ~Cycle(0);
}

void
System::registerSamplers()
{
    sampler_ = trace::CounterSampler{};
    for (auto &core : cores_) {
        const std::string track =
            "core" + std::to_string(core->id());
        sampler_.add(trace::Category::Core, track + ".committed",
                     core->id(), "insts", &core->committedInsts);
        sampler_.add(trace::Category::Core, track + ".fetch_stalls",
                     core->id(), "cycles", &core->fetchStallCycles);
    }
    const std::uint32_t fabric_base = numCores();
    for (unsigned f = 0; f < fabrics_.size(); ++f) {
        const std::string track =
            "spl" + std::to_string(fabrics_[f]->cluster());
        sampler_.add(trace::Category::Fabric, track + ".initiations",
                     fabric_base + f, "count",
                     &fabrics_[f]->initiations);
        sampler_.add(trace::Category::Fabric,
                     track + ".row_activations", fabric_base + f,
                     "count", &fabrics_[f]->rowActivations);
        sampler_.add(trace::Category::Fabric, track + ".rr_conflicts",
                     fabric_base + f, "count",
                     &fabrics_[f]->rrConflicts);
    }
}

void
System::scheduleMigration(ThreadId tid, CoreId to_core, Cycle at)
{
    REMAP_ASSERT(tid < threads_.size(), "unknown thread");
    REMAP_ASSERT(to_core < cores_.size(), "unknown core");
    Migration m;
    m.tid = tid;
    m.to = to_core;
    m.at = at;
    migrations_.push_back(m);
}

bool
System::threadInFlight(const Migration &m) const
{
    for (const Migration &other : migrations_) {
        if (&other != &m && other.tid == m.tid &&
            other.state != Migration::State::Waiting)
            return true;
    }
    return false;
}

void
System::processMigrations()
{
    for (auto it = migrations_.begin(); it != migrations_.end();) {
        Migration &m = *it;
        switch (m.state) {
          case Migration::State::Waiting: {
            if (cycle_ < m.at || threadInFlight(m))
                break;
            // Locate the source core lazily (the thread may itself
            // have been migrated since scheduling).
            m.from = threadCore_[m.tid];
            REMAP_ASSERT(m.from != invalidCore,
                         "migrating an unmapped thread");
            wakeCore(m.from);
            cores_[m.from]->requestDrain();
            m.state = Migration::State::Draining;
            if (tracer_) {
                m.drainStart = cycle_;
                if (m.flowId == 0) {
                    m.flowId = nextFlowId_++;
                    tracer_->flowBegin(trace::Category::Migration,
                                       "migrate", m.from, cycle_,
                                       m.flowId);
                }
            }
            break;
          }
          case Migration::State::Draining: {
            cpu::OooCore &from = *cores_[m.from];
            if (!from.drained())
                break;
            wakeCore(m.from);
            spl::SplFabric *fabric = coreFabric_[m.from];
            if (fabric && !fabric->threadTable().canSwitchOut(
                              coreSlot_[m.from])) {
                // Section II-B.1: in-flight fabric results pin the
                // thread; it keeps executing and we retry later.
                from.cancelDrain();
                m.state = Migration::State::Waiting;
                m.at = cycle_ + 64;
                if (tracer_) {
                    tracer_->instant(
                        trace::Category::Migration,
                        "switch_out_blocked", m.from, cycle_,
                        {trace::Arg{"thread",
                                    std::uint64_t(m.tid)}});
                }
                break;
            }
            if (fabric)
                fabric->threadTable().unmap(coreSlot_[m.from]);
            from.unbindThread();
            threadCore_[m.tid] = invalidCore;
            noteCoreActivity(m.from);
            m.state = Migration::State::Switching;
            m.resumeAt = cycle_ + config_.migrationSwitchCycles;
            if (tracer_) {
                tracer_->complete(
                    trace::Category::Migration, "drain", m.from,
                    m.drainStart, cycle_ - m.drainStart,
                    {trace::Arg{"thread", std::uint64_t(m.tid)}});
                tracer_->complete(
                    trace::Category::Migration, "switch", m.to,
                    cycle_, m.resumeAt - cycle_,
                    {trace::Arg{"thread", std::uint64_t(m.tid)},
                     trace::Arg{"from", std::uint64_t(m.from)}});
            }
            break;
          }
          case Migration::State::Switching: {
            if (cycle_ < m.resumeAt)
                break;
            REMAP_ASSERT(cores_[m.to]->thread() == nullptr,
                         "migration target core is occupied");
            mapThread(m.tid, m.to);
            ++migrationsCompleted;
            if (tracer_ && m.flowId != 0) {
                tracer_->flowEnd(trace::Category::Migration,
                                 "migrate", m.to, cycle_, m.flowId);
                tracer_->instant(
                    trace::Category::Migration, "resume", m.to,
                    cycle_,
                    {trace::Arg{"thread", std::uint64_t(m.tid)},
                     trace::Arg{"from", std::uint64_t(m.from)}});
            }
            it = migrations_.erase(it);
            continue;
          }
        }
        ++it;
    }
}

RunResult
System::run(Cycle max_cycles)
{
    return runInternal(max_cycles, /*warn_on_timeout=*/true);
}

RunResult
System::runSegment(Cycle max_cycles)
{
    return runInternal(max_cycles, /*warn_on_timeout=*/false);
}

void
System::sleepCore(std::size_t i, SleepCause cause, Cycle wake)
{
    coreWake_[i] = wake;
    coreSleptThrough_[i] = cycle_;
    coreSleptOn_[i] = cores_[i]->wakeCount();
    coreSleepCause_[i] = cause;
    ++sleepingCores_;
    ++sleeps_[cause];
}

void
System::catchUpSleeper(std::size_t i, Cycle through, bool wake)
{
    prof::PhaseScope phase(prof::Phase::SleepCatchUp);
    const Cycle n = through - coreSleptThrough_[i];
    cores_[i]->accountSkippedStallCycles(n);
    sleepSkippedCycles_[coreSleepCause_[i]] += n;
    coreSleptThrough_[i] = through;
    if (wake) {
        coreWake_[i] = 0;
        --sleepingCores_;
    }
}

void
System::catchUpSleepers(Cycle through, bool wake)
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (coreWake_[i] != 0)
            catchUpSleeper(i, through, wake);
    }
}

void
System::wakeCore(std::size_t i)
{
    if (coreWake_[i] != 0)
        catchUpSleeper(i, cycle_, /*wake=*/true);
}

RunResult
System::runInternal(Cycle max_cycles, bool warn_on_timeout)
{
    RunResult result;
    const Cycle start = cycle_;

    // (Re)derive the per-core activity cache; between here and the
    // end of the run it is maintained incrementally (dirty-flag
    // protocol, DESIGN.md). A done core's tick() is a strict no-op,
    // so skipping it is behaviour- and statistics-identical.
    activeCores_ = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        coreDone_[i] = cores_[i]->done() ? 1 : 0;
        if (!coreDone_[i])
            ++activeCores_;
    }

    while (true) {
        // Per-core sleep: a tick that only waited replays on every
        // cycle until the core's own nextEventCycle() or until
        // something it reads elsewhere changes, whatever else the chip
        // does. So the core skips those ticks, and the skipped ticks
        // are accounted when it wakes, before each counter sample and
        // when the run returns (DESIGN.md §10). A quiet tick waits on
        // the core's own horizon, and on its fabric port unless it
        // was self-timed. Each such sleeper checks its wakeCount() in
        // its own slot, so a change made earlier in this cycle wakes
        // it now and a later one next cycle — the per-cycle order. A
        // migration wakes its source core before it changes it
        // (wakeCore). Never in the per-cycle reference
        // (REMAP_NO_LEAP).
        if (activeCores_ > 0) {
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                if (coreDone_[i])
                    continue;
                cpu::OooCore &core = *cores_[i];
                if (coreWake_[i] != 0) {
                    if (cycle_ < coreWake_[i] &&
                        (coreSleepCause_[i] == SelfTimed ||
                         core.wakeCount() == coreSleptOn_[i]))
                        continue;
                    catchUpSleeper(i, cycle_ - 1, /*wake=*/true);
                }
                core.tick(cycle_);
                if (sleepEnabled_ && core.lastTickQuiet()) {
                    const Cycle wake = core.nextEventCycle(cycle_);
                    if (wake > cycle_ + 1) {
                        sleepCore(i,
                                  core.lastTickSelfTimed() ? SelfTimed
                                                           : Fabric,
                                  wake);
                    }
                }
                if (core.done()) {
                    coreDone_[i] = 1;
                    --activeCores_;
                }
            }
        }
        bool fabrics_idle = true;
        {
            prof::PhaseScope phase(prof::Phase::FabricTick);
            for (auto &fabric : fabrics_) {
                if (!fabric->idle()) {
                    fabric->tick(cycle_);
                    fabrics_idle = fabric->idle() && fabrics_idle;
                }
            }
        }
        if (!migrations_.empty())
            processMigrations();
        ++cycle_;
        if (cycle_ >= nextSample_) {
            if (sleepingCores_ != 0)
                catchUpSleepers(cycle_ - 1, /*wake=*/false);
            sampler_.sample(*tracer_, cycle_);
            nextSample_ = cycle_ + samplePeriod_;
        }

        if (activeCores_ == 0 && migrations_.empty() &&
            fabrics_idle && barrierUnit_.pendingBarriers() == 0)
            break;
        if (cycle_ - start >= max_cycles) {
            result.timedOut = true;
            if (warn_on_timeout)
                REMAP_WARN("run() hit the %llu-cycle limit",
                           static_cast<unsigned long long>(
                               max_cycles));
            break;
        }
    }
    if (sleepingCores_ != 0)
        catchUpSleepers(cycle_ - 1, /*wake=*/true);
    result.cycles = cycle_ - start;
    return result;
}

power::Energy
System::measureEnergy(const power::EnergyModel &model, Cycle cycles,
                      bool include_idle_cores)
{
    power::Energy total;
    for (auto &core : cores_) {
        const bool is_ooo2 = coreIsOoo2_[core->id()];
        if (core->thread() != nullptr) {
            total += model.coreEnergy(*core, *mem_, cycles, is_ooo2);
        } else if (include_idle_cores) {
            total += model.idleCoreLeakage(cycles, is_ooo2);
        }
    }
    for (unsigned f = 0; f < fabrics_.size(); ++f) {
        if (fabricIsIdeal_[f])
            continue; // idealized comm network: zero hardware cost
        total += model.splEnergy(*fabrics_[f], cycles);
    }
    return total;
}

void
System::dumpStats(std::ostream &os)
{
    for (auto &core : cores_)
        core->dumpStats(os);
    mem_->dumpStats(os);
    for (auto &fabric : fabrics_)
        fabric->dumpStats(os);
}

void
System::resetStats()
{
    for (auto &core : cores_)
        core->resetStats();
    mem_->resetStats();
    for (auto &fabric : fabrics_)
        fabric->resetStats();
    for (unsigned c = 0; c < kNumSleepCauses; ++c) {
        sleeps_[c].reset();
        sleepSkippedCycles_[c].reset();
    }
}

void
System::dumpStatsJson(std::ostream &os, bool include_sim)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema_version", 2);
    w.kv("cycle", cycle_);
    w.kv("num_cores", numCores());
    w.kv("num_clusters", numClusters());
    w.kv("num_fabrics", numFabrics());
    w.kv("migrations_completed", migrationsCompleted.value());
    w.key("barrier");
    w.beginObject();
    w.kv("barriers_completed",
         barrierUnit_.barriersCompleted.value());
    w.kv("bus_updates", barrierUnit_.busUpdates.value());
    w.endObject();
    w.key("groups");
    w.beginObject();
    for (auto &core : cores_)
        core->dumpStatsJson(w);
    mem_->dumpStatsJson(w);
    for (auto &fabric : fabrics_)
        fabric->dumpStatsJson(w);
    w.endObject();
    // Simulator telemetry: how the run executed on the host, not what
    // the simulated chip did. Everything under "sim" may legitimately
    // differ with REMAP_NO_LEAP or the snapshot cache, so differential
    // bit-identity tests compare with include_sim=false.
    if (include_sim) {
        w.key("sim");
        w.beginObject();
        w.key("sleep");
        w.beginObject();
        std::uint64_t sleeps = 0, skipped = 0;
        for (unsigned c = 0; c < kNumSleepCauses; ++c) {
            sleeps += sleeps_[c].value();
            skipped += sleepSkippedCycles_[c].value();
        }
        w.kv("sleeps", sleeps);
        w.kv("skipped_cycles", skipped);
        static const char *const kCauseNames[kNumSleepCauses] = {
            "self_timed", "fabric"};
        for (unsigned c = 0; c < kNumSleepCauses; ++c) {
            w.key(kCauseNames[c]);
            w.beginObject();
            w.kv("sleeps", sleeps_[c].value());
            w.kv("skipped_cycles", sleepSkippedCycles_[c].value());
            w.endObject();
        }
        w.endObject();
        prof::dumpMetaHooks(w);
        w.endObject();
    }
    w.endObject();
    os << '\n';
}

// ---------------------------------------------------------------- //
// Snapshot support
// ---------------------------------------------------------------- //

namespace
{

void
hashCacheParams(snap::Hasher &h, const mem::CacheParams &p)
{
    h.str(p.name);
    h.u64(p.sizeBytes);
    h.u32(p.assoc);
    h.u32(p.lineBytes);
    h.u64(p.latency);
}

void
hashCoreParams(snap::Hasher &h, const cpu::CoreParams &p)
{
    h.str(p.name);
    h.u32(p.fetchWidth);
    h.u32(p.renameWidth);
    h.u32(p.issueWidth);
    h.u32(p.retireWidth);
    h.u32(p.robEntries);
    h.u32(p.intQueueEntries);
    h.u32(p.fpQueueEntries);
    h.u32(p.loadQueueEntries);
    h.u32(p.storeQueueEntries);
    h.u32(p.fetchBufferEntries);
    h.u32(p.intAlus);
    h.u32(p.fpAlus);
    h.u32(p.branchUnits);
    h.u32(p.ldStUnits);
    h.u64(p.redirectPenalty);
    h.u64(p.btbMissPenalty);
    h.u32(p.bpred.gshareEntries);
    h.u32(p.bpred.bimodalEntries);
    h.u32(p.bpred.chooserEntries);
    h.u32(p.bpred.btbEntries);
    h.u32(p.bpred.rasEntries);
    h.u32(p.bpred.historyBits);
}

void
hashSplParams(snap::Hasher &h, const spl::SplParams &p)
{
    h.u32(p.physRows);
    h.u32(p.coresPerCluster);
    h.u32(p.coreCyclesPerSplCycle);
    h.u32(p.pendingInitsPerCore);
    h.u32(p.outputQueueWords);
    h.u32(p.outputTransferSplCycles);
    h.u32(p.configLoadSplCyclesPerRow);
    h.u32(p.residentConfigsPerPartition);
    h.u64(p.barrierBusLatency);
}

void
hashFunction(snap::Hasher &h, const spl::SplFunction &fn)
{
    h.str(fn.name());
    h.u32(fn.numInputWords());
    h.boolean(fn.isReduce());
    h.u64(fn.outputRegs().size());
    for (std::uint8_t r : fn.outputRegs())
        h.u32(r);
    h.u64(fn.rowProgram().size());
    for (const spl::Row &row : fn.rowProgram()) {
        h.u64(row.ops.size());
        for (const spl::WordOp &op : row.ops) {
            h.u32(static_cast<std::uint32_t>(op.op));
            h.u32(op.dst);
            h.u32(op.a);
            h.u32(op.b);
            h.i64(op.imm);
        }
    }
    h.u64(fn.lutTable().size());
    for (std::int32_t v : fn.lutTable())
        h.i64(v);
}

void
hashProgram(snap::Hasher &h, const isa::Program &prog)
{
    h.str(prog.name);
    h.u64(prog.code.size());
    for (const isa::Instruction &inst : prog.code) {
        h.u32(static_cast<std::uint32_t>(inst.op));
        h.u32(inst.rd);
        h.u32(inst.rs1);
        h.u32(inst.rs2);
        h.i64(inst.imm);
        h.i64(inst.imm2);
        h.u32(inst.target);
    }
}

} // namespace

std::uint64_t
System::configHash() const
{
    snap::Hasher h;
    h.u32(snap::formatVersion);

    h.u64(config_.clusters.size());
    for (const ClusterConfig &c : config_.clusters) {
        hashCoreParams(h, c.coreType);
        h.u32(c.numCores);
        h.boolean(c.hasSpl);
        hashSplParams(h, c.splParams);
        h.u32(c.splPartitions);
        h.boolean(c.fabricIsIdealComm);
    }
    hashCacheParams(h, config_.memParams.l1i);
    hashCacheParams(h, config_.memParams.l1d);
    hashCacheParams(h, config_.memParams.l2);
    h.u64(config_.memParams.memLatency);
    h.u64(config_.memParams.busOccupancy);
    h.u64(config_.memParams.cacheToCacheLatency);
    h.f64(config_.clocks.coreFreqHz);
    h.f64(config_.clocks.splFreqHz);
    h.u64(config_.migrationSwitchCycles);

    h.u64(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i)
        hashFunction(h, configs_.get(static_cast<ConfigId>(i)));

    h.u64(threads_.size());
    for (const cpu::ThreadContext &t : threads_) {
        h.u32(t.app);
        hashProgram(h, *t.program);
    }

    return h.value();
}

void
System::save(snap::Serializer &s) const
{
    s.section("system");
    s.u64(cycle_);
    migrationsCompleted.save(s);
    s.u64(nextFlowId_);

    s.u32(static_cast<std::uint32_t>(threads_.size()));
    for (const cpu::ThreadContext &t : threads_)
        t.save(s);
    for (CoreId c : threadCore_)
        s.u32(c);

    s.u32(static_cast<std::uint32_t>(cores_.size()));
    for (const auto &core : cores_) {
        const cpu::ThreadContext *ctx = core->thread();
        s.u32(ctx ? ctx->id : invalidThread);
    }
    for (const auto &core : cores_)
        core->save(s);

    image_.save(s);
    mem_->save(s);

    s.u32(static_cast<std::uint32_t>(fabrics_.size()));
    for (const auto &fabric : fabrics_)
        fabric->save(s);
    barrierUnit_.save(s);

    s.u32(static_cast<std::uint32_t>(migrations_.size()));
    for (const Migration &m : migrations_) {
        s.u32(m.tid);
        s.u32(m.from);
        s.u32(m.to);
        s.u64(m.at);
        s.u8(static_cast<std::uint8_t>(m.state));
        s.u64(m.resumeAt);
        s.u64(m.flowId);
        s.u64(m.drainStart);
    }

}

void
System::restore(snap::Deserializer &d)
{
    if (!d.section("system"))
        return;
    cycle_ = d.u64();
    migrationsCompleted.restore(d);
    nextFlowId_ = d.u64();

    if (d.count() != threads_.size()) {
        d.fail("thread count mismatch");
        return;
    }
    for (cpu::ThreadContext &t : threads_)
        t.restore(d);
    for (CoreId &c : threadCore_)
        c = d.u32();

    if (d.count() != cores_.size()) {
        d.fail("core count mismatch");
        return;
    }
    // Re-establish the snapshot's thread-to-core bindings before
    // restoring per-core pipeline state (threads may have migrated
    // since the initial placement the factory produced). Unbind every
    // mismatched core first so no thread is ever bound twice. The
    // fabrics' thread tables are restored wholesale below, so the
    // mapThread() path (which also updates them) is bypassed.
    std::vector<ThreadId> bound(cores_.size(), invalidThread);
    for (auto &tid : bound)
        tid = d.u32();
    if (!d.ok())
        return;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        cpu::ThreadContext *cur = cores_[c]->thread();
        if (cur && cur->id != bound[c])
            cores_[c]->unbindThread();
    }
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if (bound[c] == invalidThread)
            continue;
        if (bound[c] >= threads_.size()) {
            d.fail("bound thread id out of range");
            return;
        }
        if (cores_[c]->thread() == nullptr)
            cores_[c]->bindThread(&threads_[bound[c]]);
    }
    // A core whose binding already matched is deliberately NOT
    // rebound above, so bindThread()'s derived-state rebuild does not
    // run for it. Every component is therefore responsible for
    // refreshing its own derived fast-path state (the decoded table
    // and readiness memos in Core::restore) — none of it is
    // serialized, which keeps snapshots bit-identical across
    // REMAP_NO_BLOCK_CACHE settings.
    for (auto &core : cores_) {
        core->restore(d);
        if (!d.ok())
            return;
    }

    image_.restore(d);
    mem_->restore(d);
    if (!d.ok())
        return;

    if (d.count() != fabrics_.size()) {
        d.fail("fabric count mismatch");
        return;
    }
    for (auto &fabric : fabrics_) {
        fabric->restore(d);
        if (!d.ok())
            return;
    }
    barrierUnit_.restore(d);

    migrations_.clear();
    const std::uint32_t n_migrations = d.count(37);
    for (std::uint32_t i = 0; i < n_migrations && d.ok(); ++i) {
        Migration m;
        m.tid = d.u32();
        m.from = d.u32();
        m.to = d.u32();
        m.at = d.u64();
        const std::uint8_t state = d.u8();
        if (state >
            static_cast<std::uint8_t>(Migration::State::Switching)) {
            d.fail("bad migration state");
            return;
        }
        m.state = static_cast<Migration::State>(state);
        m.resumeAt = d.u64();
        m.flowId = d.u64();
        m.drainStart = d.u64();
        migrations_.push_back(m);
    }

    // The activity cache is re-derived at run() entry; nothing else
    // to fix up here.
}

} // namespace remap::sys
