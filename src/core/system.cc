#include "core/system.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

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

    // REMAP_NO_LEAP=1 pins the run loop to the per-cycle reference;
    // the differential tests compare it against the default
    // event-horizon scheduler for bit-identity (DESIGN.md §10).
    leapEnabled_ = !env::noLeap();

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

    if (const std::string base = env::traceFile(); !base.empty()) {
        const Cycle period = env::tracePeriod(10'000);
        // Under the parallel harness many Systems are constructed
        // concurrently; suffix the shared REMAP_TRACE path so each
        // instance writes its own file. An explicit enableTracing()
        // call uses its path verbatim.
        enableTracing(trace::uniqueTracePath(base), period);
    }

    // Read directly (not via prof::envEnabled's cache) so tests can
    // toggle REMAP_PROFILE between System constructions.
    if (env::profile())
        enableProfiling();
}

void
System::enableProfiling()
{
    if (profiler_)
        return;
    profiler_ = std::make_unique<prof::Profiler>();
    prof::Profiler *p = profiler_.get();
    for (auto &core : cores_)
        core->setProfiler(p);
    mem_->setProfiler(p);
    barrierUnit_.setProfiler(p);
    // Pick up the Host counter tracks when sampling is already live
    // (tracing enabled before profiling, e.g. both via environment).
    if (tracer_ && samplePeriod_ > 0)
        registerSamplers();
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
    // Host-time counter tracks: cumulative per-phase nanoseconds from
    // the profiler, one track past the barrier unit's.
    if (profiler_) {
        const std::uint32_t host_tid =
            fabric_base + numFabrics() + 1;
        for (unsigned i = 0; i < prof::kNumPhases; ++i) {
            const auto phase = static_cast<prof::Phase>(i);
            sampler_.add(trace::Category::Host,
                         std::string("host.") +
                             prof::phaseName(phase),
                         host_tid, "ns", &profiler_->totalNs(phase));
        }
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
System::processMigrations()
{
    bool progressed = false;
    for (auto it = migrations_.begin(); it != migrations_.end();) {
        Migration &m = *it;
        switch (m.state) {
          case Migration::State::Waiting: {
            if (cycle_ < m.at)
                break;
            progressed = true;
            // Locate the source core lazily (the thread may itself
            // have been migrated since scheduling).
            m.from = threadCore_[m.tid];
            REMAP_ASSERT(m.from != invalidCore,
                         "migrating an unmapped thread");
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
            progressed = true;
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
            progressed = true;
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
    return progressed;
}

Cycle
System::nextMigrationWake() const
{
    Cycle wake = ~Cycle(0);
    for (const Migration &m : migrations_) {
        switch (m.state) {
          case Migration::State::Waiting:
            if (m.at <= cycle_)
                return 0;
            wake = std::min(wake, m.at);
            break;
          case Migration::State::Switching:
            if (m.resumeAt <= cycle_)
                return 0;
            wake = std::min(wake, m.resumeAt);
            break;
          case Migration::State::Draining:
            return 0;
        }
    }
    return wake;
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

std::uint64_t
System::warmedInsts() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->warmedInsts();
    return total;
}

sampling::Estimate
System::sampleEstimate() const
{
    return sampling::estimate(sampleWindows_, totalCommittedInsts(),
                              cycle_, warmedInsts());
}

namespace
{

// Segment granularities for sampled execution. The schedule is a
// pure function of the committed-instruction count, checked at
// segment boundaries, so phase transitions overshoot by at most one
// segment — the overshoot is deterministic (same chunks every run)
// and simply becomes part of the measured/warmed span it lands in.
// Chunks are sized so detailed phases re-check often (windows are
// short), warming phases run long (they are cheap), and the drain
// transition stays fine-grained (cores flip to warming as they
// empty, bounding mixed-mode spans).
constexpr Cycle kDetailChunk = 64;
constexpr Cycle kDrainChunk = 16;
constexpr Cycle kWarmChunk = 1024;

} // namespace

RunResult
System::runSampled(Cycle max_cycles)
{
    if (!sampleParams_.enabled())
        return runInternal(max_cycles, /*warn_on_timeout=*/true);
    REMAP_ASSERT(migrations_.empty(),
                 "sampled mode does not support scheduled "
                 "migrations");

    const std::uint64_t P = sampleParams_.period;
    const std::uint64_t W = std::min(sampleParams_.warm, P);
    const std::uint64_t M = std::min(sampleParams_.window, P - W);
    REMAP_ASSERT(M > 0, "sampling window must be non-empty");

    RunResult result;
    const Cycle start = cycle_;

    const auto remaining = [&]() -> Cycle {
        const Cycle used = cycle_ - start;
        return used >= max_cycles ? 0 : max_cycles - used;
    };
    const auto liveCores = [&]() -> std::uint64_t {
        std::uint64_t live = 0;
        for (const auto &c : cores_)
            if (c->thread() && !c->done())
                ++live;
        return live > 0 ? live : 1;
    };

    bool measuring = false;
    std::uint64_t window_start_insts = 0;
    Cycle window_start_cycle = 0;
    bool finished = false;

    while (!finished) {
        if (remaining() == 0) {
            result.timedOut = true;
            break;
        }
        const std::uint64_t insts = totalCommittedInsts();
        const std::uint64_t k = insts / P;
        const std::uint64_t off = insts - k * P;

        if (off < W + M) {
            // Detailed phase: warm-up [kP, kP+W), then the measured
            // window [kP+W, kP+W+M).
            for (auto &c : cores_)
                c->endWarming();
            if (!measuring && off >= W) {
                measuring = true;
                window_start_insts = insts;
                window_start_cycle = cycle_;
            }
            const std::uint64_t target =
                k * P + (off < W ? W : W + M);
            const Cycle chunk = std::min<Cycle>(
                kDetailChunk,
                std::max<Cycle>(1, (target - insts) / liveCores()));
            const RunResult seg =
                runSegment(std::min(chunk, remaining()));
            finished = !seg.timedOut;
            const std::uint64_t after = totalCommittedInsts();
            if (measuring &&
                (after >= k * P + W + M ||
                 (finished && after > window_start_insts))) {
                // Close the window (a run that quiesces mid-window
                // contributes its real partial measurement).
                sampleWindows_.push_back(
                    {cycle_ - window_start_cycle,
                     after - window_start_insts});
                measuring = false;
            }
            continue;
        }

        // Fast-forward phase: drain each core's pipeline and flip it
        // to functional warming as it empties — asynchronously, so
        // cross-core SPL/barrier dependencies keep making progress
        // through the cores still detailed — then warm until the
        // next period boundary.
        bool all_warming = true;
        for (auto &c : cores_) {
            if (!c->thread() || c->done() || c->warming())
                continue;
            if (c->drained()) {
                c->beginWarming();
            } else {
                c->requestDrain();
                all_warming = false;
            }
        }
        const std::uint64_t next_boundary = (k + 1) * P;
        const Cycle chunk =
            all_warming
                ? std::min<Cycle>(
                      kWarmChunk,
                      std::max<Cycle>(
                          1, (next_boundary - insts) / liveCores()))
                : kDrainChunk;

        // Burst fast path: with every live core warming, the fabrics
        // idle and no barrier pending, nothing can interact across
        // cores until someone reaches an SPL instruction — so each
        // core runs a tight commit loop (warmBurst) instead of the
        // cycle-interleaved tick loop, and the chip clock jumps by
        // the longest burst. A core that parks at an SPL instruction
        // idles the remainder of the jump, exactly as it would have
        // spun at the gate under per-cycle ticking. When every core
        // parks immediately (used == 0), fall through to the
        // lock-step segment below to execute the SPL instructions.
        if (all_warming && barrierUnit_.pendingBarriers() == 0) {
            bool fabrics_idle = true;
            for (const auto &fabric : fabrics_)
                fabrics_idle = fabrics_idle && fabric->idle();
            if (fabrics_idle) {
                Cycle burst = std::min(chunk, remaining());
                if (nextSample_ > cycle_)
                    burst = std::min<Cycle>(burst,
                                            nextSample_ - cycle_);
                Cycle used = 0;
                for (auto &c : cores_) {
                    if (c->thread() && !c->done() && c->warming())
                        used = std::max(
                            used, c->warmBurst(cycle_, burst));
                }
                if (used > 0) {
                    cycle_ += used;
                    if (cycle_ >= nextSample_) {
                        sampler_.sample(*tracer_, cycle_);
                        nextSample_ = cycle_ + samplePeriod_;
                    }
                    continue;
                }
            }
        }
        const RunResult seg = runSegment(std::min(chunk, remaining()));
        finished = !seg.timedOut;
    }

    // Leave every core in detailed mode (drain flags included) so a
    // caller can keep using the system normally afterwards.
    for (auto &c : cores_) {
        c->endWarming();
        c->cancelDrain();
    }
    if (result.timedOut)
        REMAP_WARN("runSampled() hit the %llu-cycle limit",
                   static_cast<unsigned long long>(max_cycles));
    result.cycles = cycle_ - start;
    return result;
}

void
System::catchUpSleeper(std::size_t i, Cycle through, bool wake)
{
    const Cycle n = through - coreSleptThrough_[i];
    cores_[i]->accountSkippedStallCycles(n);
    sleepSkippedCycles_ += n;
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
        // Event-horizon bookkeeping: all_quiet holds iff every tick
        // this iteration left its component's externally visible
        // state unchanged (fixed stall signature). Only then are the
        // following cycles guaranteed to repeat this one verbatim
        // until the earliest nextEventCycle() threshold.
        //
        // Per-core sleep: a quiet, self-timed tick replays on every
        // cycle up to the core's own nextEventCycle() whatever the
        // rest of the chip does, so the core skips those ticks and
        // counts as quiet meanwhile; its stall signature is accounted
        // when it wakes, before each counter sample and when the run
        // returns (DESIGN.md §10.2). Not while a migration can drain
        // it, and never in the per-cycle reference (REMAP_NO_LEAP).
        bool all_quiet = leapEnabled_;
        const bool may_sleep = leapEnabled_ && migrations_.empty();
        if (activeCores_ > 0) {
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                if (coreDone_[i])
                    continue;
                if (coreWake_[i] != 0) {
                    if (cycle_ < coreWake_[i])
                        continue;
                    catchUpSleeper(i, cycle_ - 1, /*wake=*/true);
                }
                cpu::OooCore &core = *cores_[i];
                core.tick(cycle_);
                if (!core.lastTickQuiet()) {
                    all_quiet = false;
                } else if (may_sleep && core.lastTickSelfTimed()) {
                    const Cycle wake = core.nextEventCycle(cycle_);
                    if (wake > cycle_ + 1) {
                        coreWake_[i] = wake;
                        coreSleptThrough_[i] = cycle_;
                        ++sleepingCores_;
                        ++sleeps_;
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
            prof::ScopedTimer timer(
                fabrics_.empty() ? nullptr : profiler_.get(),
                prof::Phase::FabricTick);
            for (auto &fabric : fabrics_) {
                if (!fabric->idle()) {
                    fabric->tick(cycle_);
                    if (!fabric->lastTickQuiet())
                        all_quiet = false;
                    fabrics_idle = fabric->idle() && fabrics_idle;
                }
            }
        }
        if (!migrations_.empty() && processMigrations())
            all_quiet = false; // drain requests invalidate signatures
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

        // Event-horizon leap: the tick at cycle_-1 was quiet
        // everywhere, so every tick until the earliest component
        // horizon repeats it exactly. Bulk-account the per-cycle
        // stall statistics those ticks would have produced and jump
        // straight to the horizon. The target is clamped so that the
        // timeout check, the next counter sample and the next
        // migration wake-up all still fire on the exact cycle the
        // per-cycle loop (REMAP_NO_LEAP=1) would fire them on; see
        // DESIGN.md §10 for the bit-identity argument.
        if (all_quiet) {
            prof::ScopedTimer timer(profiler_.get(),
                                    prof::Phase::LeapScan);
            const Cycle now = cycle_ - 1; // the cycle just ticked
            Cycle target = neverCycle;
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                if (!coreDone_[i])
                    target = std::min(
                        target, coreWake_[i] != 0
                                    ? coreWake_[i]
                                    : cores_[i]->nextEventCycle(now));
            }
            for (auto &fabric : fabrics_) {
                if (!fabric->idle())
                    target = std::min(target,
                                      fabric->nextEventCycle(now));
            }
            if (!migrations_.empty()) {
                const Cycle wake = nextMigrationWake();
                target = wake == 0 ? cycle_ : std::min(target, wake);
            }
            target = std::min(target, start + max_cycles - 1);
            target = std::min(target, nextSample_ - 1);
            if (target > cycle_) {
                const Cycle skipped = target - cycle_;
                ++leaps_;
                leapSkippedCycles_ += skipped;
                leapHist_.sample(skipped);
                for (std::size_t i = 0; i < cores_.size(); ++i) {
                    if (!coreDone_[i] && coreWake_[i] == 0)
                        cores_[i]->accountSkippedStallCycles(skipped);
                }
                cycle_ = target;
            }
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
    leaps_.reset();
    leapSkippedCycles_.reset();
    leapHist_.reset();
    sleeps_.reset();
    sleepSkippedCycles_.reset();
    if (profiler_)
        profiler_->reset();
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
    // differ across fast-path kill switches or profiling on/off, so
    // differential bit-identity tests compare with include_sim=false.
    if (include_sim) {
        w.key("sim");
        w.beginObject();
        w.key("leap");
        w.beginObject();
        w.kv("leaps", leaps_.value());
        w.kv("skipped_cycles", leapSkippedCycles_.value());
        w.key("skipped_hist");
        leapHist_.dumpJson(w);
        w.endObject();
        w.key("sleep");
        w.beginObject();
        w.kv("sleeps", sleeps_.value());
        w.kv("skipped_cycles", sleepSkippedCycles_.value());
        w.endObject();
        w.key("groups");
        w.beginObject();
        for (auto &core : cores_)
            core->dumpMetaStatsJson(w);
        mem_->dumpMetaStatsJson(w);
        w.endObject();
        prof::dumpMetaHooks(w);
        // Sampled-mode estimate (DESIGN.md §14). Lives under "sim"
        // because it describes how the simulator measured, and exact
        // runs must stay byte-identical to pre-sampling output.
        if (sampleParams_.enabled()) {
            const sampling::Estimate e = sampleEstimate();
            w.key("sampling");
            w.beginObject();
            w.kv("period_insts", sampleParams_.period);
            w.kv("window_insts", sampleParams_.window);
            w.kv("warm_insts", sampleParams_.warm);
            w.kv("sampled", e.sampled ? 1 : 0);
            w.kv("windows", e.windows);
            w.kv("warmed_insts", warmedInsts());
            w.kv("measured_cycles", e.measuredCycles);
            w.kv("insts", e.insts);
            w.kvExact("cpi_mean", e.cpiMean);
            w.kvExact("cpi_stderr", e.cpiStderr);
            w.kvExact("est_cycles", e.estCycles);
            w.kvExact("ci_half_width_cycles", e.ciHalfWidthCycles);
            w.kvExact("ci_low_cycles", e.ciLowCycles());
            w.kvExact("ci_high_cycles", e.ciHighCycles());
            w.endObject();
        }
        if (profiler_) {
            w.key("profile");
            profiler_->dumpJson(w);
        }
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

    // Sampled-mode schedule (DESIGN.md §14): folded in only when
    // enabled, so every exact-run hash is unchanged, while sampled
    // and exact runs of the same workload — or two different
    // schedules — can never alias in the snapshot cache or result
    // store. Adaptive runs (DESIGN.md §15) additionally fold the
    // resolved CI target and period clamps, so an adaptive run can
    // never alias a fixed-schedule run even at its converged period
    // (fixed-schedule hashes stay byte-identical to the pre-adaptive
    // format).
    if (sampleParams_.enabled() || sampleParams_.adaptive()) {
        h.u32(0x5A3D11E5u); // domain tag: "sampled"
        h.u64(sampleParams_.period);
        h.u64(sampleParams_.window);
        h.u64(sampleParams_.warm);
        if (sampleParams_.adaptive()) {
            const sampling::SampleParams r =
                sampleParams_.resolvedAdaptive();
            h.u32(0xAD5C4ED5u); // domain tag: "adaptive schedule"
            h.f64(r.ciTarget);
            h.u64(r.minPeriod);
            h.u64(r.maxPeriod);
        }
    }
    return h.value();
}

void
System::save(snap::Serializer &s) const
{
    prof::ScopedTimer timer(profiler_.get(),
                            prof::Phase::SnapshotSave);
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

    // Sampled-mode windows recorded so far, so a restored sampled
    // run resumes its estimate where the snapshot left off.
    s.u32(static_cast<std::uint32_t>(sampleWindows_.size()));
    for (const sampling::WindowSample &ws : sampleWindows_) {
        s.u64(ws.cycles);
        s.u64(ws.insts);
    }
}

void
System::restore(snap::Deserializer &d)
{
    prof::ScopedTimer timer(profiler_.get(),
                            prof::Phase::SnapshotRestore);
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
    // refreshing its own derived fast-path state (the decoded
    // basic-block table and readiness memos in Core::restore, the MRU
    // way predictions in Cache::restore) — none of it is serialized,
    // which keeps snapshots bit-identical across REMAP_NO_BLOCK_CACHE
    // and REMAP_NO_MRU settings.
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

    sampleWindows_.clear();
    const std::uint32_t n_windows = d.count(16);
    for (std::uint32_t i = 0; i < n_windows && d.ok(); ++i) {
        sampling::WindowSample ws;
        ws.cycles = d.u64();
        ws.insts = d.u64();
        sampleWindows_.push_back(ws);
    }

    // The activity cache is re-derived at run() entry; nothing else
    // to fix up here.
}

} // namespace remap::sys
