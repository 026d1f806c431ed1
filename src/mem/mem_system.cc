#include "mem/mem_system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace remap::mem
{

MemSystem::MemSystem(unsigned num_cores, const MemSystemParams &params)
    : params_(params), statGroup_("mem")
{
    REMAP_ASSERT(num_cores > 0, "need at least one core");
    for (unsigned c = 0; c < num_cores; ++c) {
        CacheParams p1i = params_.l1i;
        p1i.name = "core" + std::to_string(c) + ".l1i";
        CacheParams p1d = params_.l1d;
        p1d.name = "core" + std::to_string(c) + ".l1d";
        CacheParams p2 = params_.l2;
        p2.name = "core" + std::to_string(c) + ".l2";
        l1i_.push_back(std::make_unique<Cache>(p1i));
        l1d_.push_back(std::make_unique<Cache>(p1d));
        l2_.push_back(std::make_unique<Cache>(p2));
    }
    statGroup_.addCounter("bus_transactions", &busTransactions);
    statGroup_.addCounter("mem_accesses", &memAccesses);
    statGroup_.addCounter("cache_to_cache", &cacheToCacheTransfers);
    statGroup_.addCounter("upgrades", &upgrades);
}

Cycle
MemSystem::acquireBus(Cycle now)
{
    Cycle grant = std::max(now, busBusyUntil_);
    busBusyUntil_ = grant + params_.busOccupancy;
    ++busTransactions;
    return grant;
}

MemSystem::SnoopResult
MemSystem::snoopRemotes(CoreId requester, Addr addr, bool exclusive)
{
    SnoopResult found;
    for (unsigned c = 0; c < l2_.size(); ++c) {
        if (c == requester)
            continue;
        const Cache::Line *line = l2_[c]->probe(addr);
        if (!line)
            continue;
        found.anyCopy = true;
        if (line->state == Mesi::Modified ||
            line->state == Mesi::Exclusive) {
            found.dirty = (line->state == Mesi::Modified);
        }
        if (exclusive) {
            l2_[c]->invalidate(addr);
            // Inclusion: kill any L1 copies too.
            l1d_[c]->invalidate(addr);
            l1i_[c]->invalidate(addr);
        } else {
            l2_[c]->downgradeToShared(addr);
            l1d_[c]->downgradeToShared(addr);
        }
    }
    return found;
}

Cycle
MemSystem::fillL2(CoreId core, Addr addr, AccessKind kind, Cycle now)
{
    Cache &l2c = *l2_[core];
    const bool wants_exclusive =
        kind == AccessKind::Write || kind == AccessKind::Amo;

    Cache::Line *line = l2c.lookup(addr);
    if (line) {
        ++l2c.hits;
        Cycle ready = now + l2c.latency();
        if (!wants_exclusive)
            return ready;
        switch (line->state) {
          case Mesi::Modified:
          case Mesi::Exclusive:
            line->state = Mesi::Modified;
            return ready;
          case Mesi::Shared: {
            // BusUpgr: invalidate remote sharers.
            ++upgrades;
            Cycle grant = acquireBus(ready);
            snoopRemotes(core, addr, /*exclusive=*/true);
            line->state = Mesi::Modified;
            return grant + params_.busOccupancy;
          }
          case Mesi::Invalid:
            break; // fall through to miss path below
        }
    }

    // L2 miss: BusRd / BusRdX. A remote Modified copy supplies the
    // data; on a read, so does any remote E/S copy (it stays, now
    // Shared). An exclusive request invalidates every remote copy.
    ++l2c.misses;
    Cycle grant = acquireBus(now + l2c.latency());
    const SnoopResult snoop =
        snoopRemotes(core, addr, wants_exclusive);
    const bool remote_supplied =
        snoop.dirty || (!wants_exclusive && snoop.anyCopy);

    Cycle data_ready;
    if (remote_supplied) {
        ++cacheToCacheTransfers;
        data_ready = grant + params_.cacheToCacheLatency;
    } else {
        ++memAccesses;
        data_ready = grant + params_.memLatency;
    }

    Addr victim_addr;
    Mesi victim_state;
    line = l2c.allocate(addr, &victim_addr, &victim_state);
    if (victim_state != Mesi::Invalid) {
        // Inclusion: back-invalidate the L1s for the victim line.
        l1d_[core]->invalidate(victim_addr);
        l1i_[core]->invalidate(victim_addr);
        if (victim_state == Mesi::Modified) {
            // Writeback occupies the bus but is off the critical path
            // (posted through a write buffer).
            acquireBus(data_ready);
        }
    }

    if (wants_exclusive)
        line->state = Mesi::Modified;
    else
        line->state = remote_supplied ? Mesi::Shared : Mesi::Exclusive;
    return data_ready;
}

Cycle
MemSystem::accessTimed(CoreId core, Addr addr, AccessKind kind,
                       Cycle now)
{
    REMAP_ASSERT(core < l2_.size(), "core id out of range");
    Cache &l1 = (kind == AccessKind::IFetch) ? *l1i_[core] : *l1d_[core];
    const bool wants_exclusive =
        kind == AccessKind::Write || kind == AccessKind::Amo;

    Cache::Line *line = l1.lookup(addr);
    if (line) {
        if (!wants_exclusive || line->state == Mesi::Modified ||
            line->state == Mesi::Exclusive) {
            ++l1.hits;
            if (wants_exclusive)
                line->state = Mesi::Modified;
            return now + l1.latency();
        }
        // Shared in L1 on a write: upgrade through L2.
        ++l1.misses;
        Cycle ready = fillL2(core, addr, kind, now + l1.latency());
        line->state = Mesi::Modified;
        return ready;
    }

    // L1 miss: fill from the L2 side.
    ++l1.misses;
    Cycle ready = fillL2(core, addr, kind, now + l1.latency());

    Addr victim_addr;
    Mesi victim_state;
    line = l1.allocate(addr, &victim_addr, &victim_state);
    (void)victim_addr;
    // L1 victim writeback folds into the L2 (already resident by
    // inclusion); no bus traffic.
    if (wants_exclusive) {
        line->state = Mesi::Modified;
    } else {
        const Cache::Line *l2line = l2_[core]->probe(addr);
        line->state = (l2line && (l2line->state == Mesi::Exclusive ||
                                  l2line->state == Mesi::Modified))
                          ? Mesi::Exclusive
                          : Mesi::Shared;
    }
    return ready;
}

void
MemSystem::flushCore(CoreId core)
{
    REMAP_ASSERT(core < l2_.size(), "core id out of range");
    l1i_[core]->flushAll();
    l1d_[core]->flushAll();
    l2_[core]->flushAll();
}

void
MemSystem::dumpStats(std::ostream &os)
{
    statGroup_.dump(os);
    for (unsigned c = 0; c < l2_.size(); ++c) {
        l1i_[c]->stats().dump(os);
        l1d_[c]->stats().dump(os);
        l2_[c]->stats().dump(os);
    }
}

void
MemSystem::dumpStatsJson(json::Writer &w)
{
    statGroup_.dumpJson(w);
    for (unsigned c = 0; c < l2_.size(); ++c) {
        l1i_[c]->stats().dumpJson(w);
        l1d_[c]->stats().dumpJson(w);
        l2_[c]->stats().dumpJson(w);
    }
}

void
MemSystem::resetStats()
{
    statGroup_.reset();
    for (unsigned c = 0; c < l2_.size(); ++c) {
        l1i_[c]->stats().reset();
        l1d_[c]->stats().reset();
        l2_[c]->stats().reset();
    }
}

void
MemSystem::save(snap::Serializer &s) const
{
    s.section("memsys");
    s.u32(static_cast<std::uint32_t>(l2_.size()));
    s.u64(busBusyUntil_);
    statGroup_.save(s);
    for (unsigned c = 0; c < l2_.size(); ++c) {
        l1i_[c]->save(s);
        l1d_[c]->save(s);
        l2_[c]->save(s);
    }
}

void
MemSystem::restore(snap::Deserializer &d)
{
    if (!d.section("memsys"))
        return;
    if (d.u32() != l2_.size()) {
        d.fail("core count mismatch");
        return;
    }
    busBusyUntil_ = d.u64();
    statGroup_.restore(d);
    for (unsigned c = 0; c < l2_.size() && d.ok(); ++c) {
        l1i_[c]->restore(d);
        l1d_[c]->restore(d);
        l2_[c]->restore(d);
    }
}

} // namespace remap::mem
