/**
 * @file
 * The periodic spin leap of OooCore (DESIGN.md §10.2): detect a core
 * whose state, relative to its sequence numbers and the cycle,
 * repeats every P <= 8 ticks while it reads only lines nobody
 * writes; record one period; and replay any number of skipped ticks
 * exactly from that record.
 */

#include <algorithm>
#include <cstring>

#include "cpu/core.hh"
#include "sim/profile.hh"

namespace remap::cpu
{

namespace
{

/**
 * A time threshold seen at tick ends @p now_a (value @p a) and one
 * period @p p later (value @p b). Periodic when it moved by exactly
 * p (it is rewritten every period) or stayed put at or before now_a
 * or at neverCycle (it is never rewritten); @p moves says which.
 */
bool
periodicTime(Cycle a, Cycle b, Cycle now_a, Cycle p, bool &moves)
{
    moves = false;
    if (b == a)
        return a <= now_a || a == neverCycle;
    moves = true;
    return a != neverCycle && b == a + p;
}

/** The same for a sequence-number field: it moved by exactly the
 *  period's @p insts, or stayed put at 0 or below @p head_a (it
 *  names nothing in the window and is never rewritten). */
bool
periodicSeq(std::uint64_t a, std::uint64_t b, std::uint64_t head_a,
            std::uint64_t insts, bool &moves)
{
    moves = false;
    if (b == a)
        return a < head_a;
    moves = true;
    return a != 0 && b == a + insts;
}

bool
contains(const std::vector<Addr> &lines, Addr line)
{
    return std::find(lines.begin(), lines.end(), line) != lines.end();
}

/** LRU stamps of one cache's watched lines, a period apart. */
bool
periodicStamps(const std::vector<std::uint64_t> &a,
               const std::vector<std::uint64_t> &b,
               std::uint64_t clock_delta, std::vector<bool> &moves)
{
    moves.assign(a.size(), false);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (b[i] == a[i])
            continue; // untouched all period (or absent)
        if (a[i] == 0 || b[i] != a[i] + clock_delta)
            return false;
        moves[i] = true;
    }
    return true;
}

} // namespace

std::array<std::uint64_t *, 6>
OooCore::spinScalars()
{
    return {&fetchResumeCycle_, &divBusyUntil_, &fpDivBusyUntil_,
            &storeBufferDrainCycle_, &minIssuedComplete_,
            &fetchBlockedOnSeq_};
}

std::uint64_t
OooCore::spinHash(Cycle now) const
{
    // Runs on every eligible tick, so it reads a handful of fields
    // and multiplies them in parallel; a false match costs one exact
    // comparison and a backoff.
    auto rel = [now](Cycle c) -> std::uint64_t {
        return c > now && c != neverCycle ? c - now : 0;
    };
    const DynInst &head = win_[headSeq_ & winMask_];
    const DynInst &tail = win_[(nextSeq_ - 1) & winMask_];
    const std::uint64_t shape =
        std::uint64_t{ctx_->pc} | robSize() << 32 | fbSize() << 40 |
        iq_.size() << 48 | inflight_.size() << 56;
    const std::uint64_t ends =
        head.pcAddr ^ head.memAddr << 1 ^ tail.memAddr << 2 ^
        static_cast<std::uint64_t>(head.stage) << 62;
    const std::uint64_t timing =
        rel(minIssuedComplete_) ^ rel(fetchResumeCycle_) << 16 ^
        std::uint64_t{stallMask_} << 32 ^ bpred_.maskedHistory() << 40;
    return shape * 0x9E3779B97F4A7C15ULL ^
           ends * 0xC2B2AE3D27D4EB4FULL ^
           timing * 0x165667B19E3779F9ULL;
}

void
OooCore::spinCapture(SpinState &st, Cycle now) const
{
    prof::PhaseScope phase(prof::Phase::LeapScan);
    st.now = now;
    st.headSeq = headSeq_;
    st.dispSeq = dispSeq_;
    st.nextSeq = nextSeq_;
    st.window.resize(nextSeq_ - headSeq_);
    for (std::uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const DynInst &d = win_[seq & winMask_];
        SpinEntry &e = st.window[seq - headSeq_];
        e.si = d.si;
        e.pcAddr = d.pcAddr;
        e.memAddr = d.memAddr;
        e.time = d.stage == Stage::InBuffer ? d.fbReady
                 : d.stage == Stage::Issued ? d.completeCycle
                                            : 0;
        const bool waits = d.stage == Stage::Dispatched;
        e.dep1 = waits && d.dep1 ? static_cast<std::uint32_t>(seq - d.dep1)
                                 : 0;
        e.dep2 = waits && d.dep2 ? static_cast<std::uint32_t>(seq - d.dep2)
                                 : 0;
        e.flags = d.flags;
        e.cls = d.cls;
        e.stage = d.stage;
        e.memLen = static_cast<std::uint8_t>(d.memLen);
        e.mispredicted = d.mispredicted;
    }
    std::copy(std::begin(intProducer_), std::end(intProducer_),
              st.intProducer.begin());
    std::copy(std::begin(fpProducer_), std::end(fpProducer_),
              st.fpProducer.begin());
    st.iq = iq_;
    st.inflight = inflight_;
    st.intQueueOcc = intQueueOcc_;
    st.fpQueueOcc = fpQueueOcc_;
    st.loadQueueOcc = loadQueueOcc_;
    st.storeQueueOcc = storeQueueOcc_;
    st.scalars = {fetchResumeCycle_, divBusyUntil_, fpDivBusyUntil_,
                  storeBufferDrainCycle_, minIssuedComplete_,
                  fetchBlockedOnSeq_};
    st.tickProgress = tickProgress_;
    st.stallMask = stallMask_;
    st.pc = ctx_->pc;
    st.intRegs = ctx_->intRegs;
    st.fpRegs = ctx_->fpRegs;
    st.history = bpred_.history();
    st.maskedHistory = bpred_.maskedHistory();
    st.bpredWrites = bpred_.tableWrites();
    st.lookups = bpred_.lookups.value();
    const mem::Cache &l1i = mem_->l1i(id_);
    const mem::Cache &l1d = mem_->l1d(id_);
    st.l1iMisses = l1i.misses.value();
    st.l1dMisses = l1d.misses.value();
    st.l1iClock = l1i.lruClock();
    st.l1dClock = l1d.lruClock();
    st.counters.resize(spinCounters_.size());
    for (std::size_t i = 0; i < spinCounters_.size(); ++i)
        st.counters[i] = spinCounters_[i]->value();
    st.stampsI.resize(spinLinesI_.size());
    for (std::size_t i = 0; i < spinLinesI_.size(); ++i)
        st.stampsI[i] = l1i.stampOf(spinLinesI_[i]);
    st.stampsD.resize(spinLinesD_.size());
    for (std::size_t i = 0; i < spinLinesD_.size(); ++i)
        st.stampsD[i] = l1d.stampOf(spinLinesD_[i]);
}

bool
OooCore::spinPeriodic(const SpinState &a, const SpinState &b)
{
    // Everything the next tick reads must be the same relative to
    // headSeq_ and now: plain values equal, live cycle fields moved
    // by exactly the period p, live sequence numbers by exactly the
    // period's instruction count. Fields no later tick reads (see
    // save()) are skipped. The external inputs — watched lines and
    // the predictor tables — must not have changed at all.
    const Cycle p = b.now - a.now;
    const std::uint64_t insts = b.headSeq - a.headSeq;
    if (insts == 0 || b.dispSeq != a.dispSeq + insts ||
        b.nextSeq != a.nextSeq + insts)
        return false;
    if (b.pc != a.pc || b.intRegs != a.intRegs ||
        std::memcmp(b.fpRegs.data(), a.fpRegs.data(),
                    sizeof(a.fpRegs)) != 0)
        return false;
    if (b.intQueueOcc != a.intQueueOcc ||
        b.fpQueueOcc != a.fpQueueOcc ||
        b.loadQueueOcc != a.loadQueueOcc ||
        b.storeQueueOcc != a.storeQueueOcc ||
        b.tickProgress != a.tickProgress ||
        b.stallMask != a.stallMask)
        return false;
    if (b.maskedHistory != a.maskedHistory ||
        b.bpredWrites != a.bpredWrites ||
        b.l1iMisses != a.l1iMisses || b.l1dMisses != a.l1dMisses)
        return false;

    auto moved_list = [insts](const std::vector<std::uint64_t> &x,
                              const std::vector<std::uint64_t> &y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i)
            if (y[i] != x[i] + insts)
                return false;
        return true;
    };
    if (!moved_list(a.iq, b.iq) || !moved_list(a.inflight, b.inflight))
        return false;

    // Entries are position-relative: same seq offset, producers at
    // the same distance, live cycle field moved by exactly p.
    for (std::size_t i = 0; i < a.window.size(); ++i) {
        SpinEntry x = a.window[i];
        if (x.stage == Stage::InBuffer || x.stage == Stage::Issued)
            x.time += p;
        if (!(x == b.window[i]))
            return false;
    }

    for (std::size_t i = 0; i < a.scalars.size(); ++i) {
        bool moves = false;
        const bool ok =
            i + 1 < a.scalars.size()
                ? periodicTime(a.scalars[i], b.scalars[i], a.now, p,
                               moves)
                : periodicSeq(a.scalars[i], b.scalars[i], a.headSeq,
                              insts, moves);
        if (!ok)
            return false;
        spinScalarMoves_[i] = moves;
    }
    for (std::size_t r = 0; r < a.intProducer.size(); ++r) {
        bool moves = false;
        if (!periodicSeq(a.intProducer[r], b.intProducer[r], a.headSeq,
                         insts, moves))
            return false;
        spinIntProdMoves_[r] = moves;
    }
    for (std::size_t r = 0; r < a.fpProducer.size(); ++r) {
        bool moves = false;
        if (!periodicSeq(a.fpProducer[r], b.fpProducer[r], a.headSeq,
                         insts, moves))
            return false;
        spinFpProdMoves_[r] = moves;
    }
    spinClockI_ = b.l1iClock - a.l1iClock;
    spinClockD_ = b.l1dClock - a.l1dClock;
    if (!periodicStamps(a.stampsI, b.stampsI, spinClockI_,
                        spinStampIMoves_) ||
        !periodicStamps(a.stampsD, b.stampsD, spinClockD_,
                        spinStampDMoves_))
        return false;

    spinInsts_ = insts;
    spinBranches_ = b.lookups - a.lookups;
    spinDeltas_.resize(a.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i)
        spinDeltas_[i] = b.counters[i] - a.counters[i];
    return true;
}

bool
OooCore::spinLinesCovered(std::uint64_t from) const
{
    const mem::Cache &l1i = mem_->l1i(id_);
    const mem::Cache &l1d = mem_->l1d(id_);
    for (std::uint64_t seq = std::max(from, headSeq_); seq < nextSeq_;
         ++seq) {
        const DynInst &d = win_[seq & winMask_];
        if (!contains(spinLinesI_, l1i.lineAddr(d.pcAddr)))
            return false;
        if ((d.flags & isa::kLsqLoad) &&
            !contains(spinLinesD_, l1d.lineAddr(d.memAddr)))
            return false;
    }
    return true;
}

void
OooCore::resetSpin()
{
    if (watch_ && (!spinLinesI_.empty() || !spinLinesD_.empty()))
        watch_->removeCore(id_);
    spinLinesI_.clear();
    spinLinesD_.clear();
    spinPhase_ = SpinPhase::Idle;
    spinRingLen_ = 0;
}

void
OooCore::abortSpin(Cycle now)
{
    resetSpin();
    spinRetryAt_ = now + spinBackoff_;
    spinBackoff_ = std::min(spinBackoff_ * 2, kSpinBackoffMax);
}

void
OooCore::spinStep(Cycle now)
{
    // The gate: nothing in the window that stores, touches the
    // fabric, halts or divides; no fabric wait this tick; no commit
    // trace to print; no migration drain; no open SPL stall span.
    const bool eligible =
        lastBlockerSeq_ < headSeq_ && headSeq_ != nextSeq_ &&
        !(stallMask_ & kFabricBound) && !trace_ && !draining_ &&
        !fetchHalted_ && splCommitStallStart_ == 0 &&
        splFetchStallStart_ == 0;
    if (!eligible || now != spinLastTick_ + 1) {
        if (spinPhase_ != SpinPhase::Idle)
            abortSpin(now);
        spinRun_ = 0;
        spinNextSample_ = kSpinSample;
        spinRingLen_ = 0;
    }
    spinLastTick_ = now;
    if (!eligible)
        return;

    if (spinPhase_ == SpinPhase::Idle) {
        // Most eligible ticks belong to loops that never repeat, so
        // hash only sampled ticks of a run — at kSpinSample, twice
        // that, and so on, at most kSpinSampleMax apart — and compare
        // with the previous sample. Every gap is a multiple of
        // kSpinSample, so any period dividing it shows. Only after a
        // repeat hash every tick, for at most 2 * kMaxSpinPeriod
        // ticks, to find the smallest period.
        ++spinRun_;
        if (now < spinRetryAt_) {
            spinRingLen_ = 0;
            return;
        }
        if (spinRingLen_ == 0 && spinRun_ != spinNextSample_)
            return;
        const std::uint64_t h = spinHash(now);
        if (spinRingLen_ == 0) {
            const bool repeat =
                spinRun_ > kSpinSample && h == spinSample_;
            spinSample_ = h;
            spinNextSample_ =
                spinRun_ + std::min(spinRun_, kSpinSampleMax);
            if (!repeat)
                return;
        }
        const unsigned ring = static_cast<unsigned>(spinRing_.size());
        spinRing_[spinRingLen_ % ring] = h;
        ++spinRingLen_;
        for (unsigned p = 1; p <= kMaxSpinPeriod && p < spinRingLen_;
             ++p) {
            if (spinRing_[(spinRingLen_ - 1 - p) % ring] != h)
                continue;
            // A candidate period: watch every line the window
            // fetches or loads from, then verify and record.
            const mem::Cache &l1i = mem_->l1i(id_);
            const mem::Cache &l1d = mem_->l1d(id_);
            for (std::uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
                const DynInst &d = win_[seq & winMask_];
                const Addr code = l1i.lineAddr(d.pcAddr);
                if (!contains(spinLinesI_, code)) {
                    spinLinesI_.push_back(code);
                    watch_->add(id_, code);
                }
                const Addr data = l1d.lineAddr(d.memAddr);
                if ((d.flags & isa::kLsqLoad) &&
                    !contains(spinLinesD_, data)) {
                    spinLinesD_.push_back(data);
                    watch_->add(id_, data);
                }
            }
            spinWatchCount_ = wakeCount();
            spinPhases_.resize(std::max(p, 2u));
            spinCapture(spinPhases_.back(), now);
            spinStartCycle_ = now;
            spinCheckedSeq_ = nextSeq_;
            spinPeriod_ = p;
            spinPhase_ = SpinPhase::Attempt;
            return;
        }
        if (spinRingLen_ > 2 * kMaxSpinPeriod)
            spinRingLen_ = 0; // back to sampling
        return;
    }

    // Attempt, step ticks after the candidate: step p verifies that
    // the state repeats after p ticks, which makes every later tick
    // repeat the one p ticks earlier (DESIGN.md §10.2); steps
    // p..2p-1 record the phases of a period that lies wholly after
    // the candidate. Every step must read only watched lines, none
    // of which may change.
    const Cycle step = now - spinStartCycle_;
    const unsigned p = spinPeriod_;
    if (wakeCount() != spinWatchCount_ ||
        !spinLinesCovered(spinCheckedSeq_)) {
        abortSpin(now);
        return;
    }
    spinCheckedSeq_ = nextSeq_;
    if (step < p)
        return;
    spinCapture(spinPhases_[step - p], now);
    if (step == p && !spinPeriodic(spinPhases_.back(), spinPhases_[0])) {
        abortSpin(now);
        return;
    }
    if (step < 2 * p - 1)
        return;
    spinBase_ = now - (p - 1);
    spinBackoff_ = kSpinBackoffMin;
    spinPhase_ = SpinPhase::Ready;
    spinLoPc_ = ~std::uint64_t{0};
    spinHiPc_ = 0;
    for (const SpinEntry &e : spinPhases_[0].window) {
        spinLoPc_ = std::min(spinLoPc_, e.pcAddr);
        spinHiPc_ = std::max(spinHiPc_, e.pcAddr);
    }
}

void
OooCore::spinCatchUp(Cycle through)
{
    if (through <= spinLastTick_)
        return;
    // The tick at spinBase_ + n is recorded phase n mod P, k whole
    // periods after it was recorded.
    const std::uint64_t n = through - spinBase_;
    const std::uint64_t k = n / spinPeriod_;
    const SpinState &r = spinPhases_[n % spinPeriod_];
    const std::uint64_t dseq = k * spinInsts_;
    const Cycle dt = k * spinPeriod_;

    headSeq_ = r.headSeq + dseq;
    dispSeq_ = r.dispSeq + dseq;
    nextSeq_ = r.nextSeq + dseq;
    for (std::uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const SpinEntry &e = r.window[seq - headSeq_];
        DynInst &d = slot(seq);
        // A gated entry holds no store or SPL value, and the
        // readiness memo is only a hint: "unknown" is exact.
        d = DynInst{};
        d.si = e.si;
        d.cls = e.cls;
        d.flags = e.flags;
        d.seq = seq;
        d.pcAddr = e.pcAddr;
        d.stage = e.stage;
        if (e.stage == Stage::InBuffer)
            d.fbReady = e.time + dt;
        if (e.stage == Stage::Issued)
            d.completeCycle = e.time + dt;
        d.dep1 = e.dep1 ? seq - e.dep1 : 0;
        d.dep2 = e.dep2 ? seq - e.dep2 : 0;
        d.memAddr = e.memAddr;
        d.memLen = e.memLen;
        d.mispredicted = e.mispredicted;
        d.usesFpQueue = (e.flags & isa::kUsesFpQueue) != 0;
    }
    for (std::size_t i = 0; i < r.intProducer.size(); ++i)
        intProducer_[i] =
            r.intProducer[i] + (spinIntProdMoves_[i] ? dseq : 0);
    for (std::size_t i = 0; i < r.fpProducer.size(); ++i)
        fpProducer_[i] =
            r.fpProducer[i] + (spinFpProdMoves_[i] ? dseq : 0);
    iq_ = r.iq;
    for (std::uint64_t &seq : iq_)
        seq += dseq;
    inflight_ = r.inflight;
    for (std::uint64_t &seq : inflight_)
        seq += dseq;
    intQueueOcc_ = r.intQueueOcc;
    fpQueueOcc_ = r.fpQueueOcc;
    loadQueueOcc_ = r.loadQueueOcc;
    storeQueueOcc_ = r.storeQueueOcc;
    const auto scalars = spinScalars();
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        const std::uint64_t shift = i + 1 < scalars.size() ? dt : dseq;
        *scalars[i] = r.scalars[i] + (spinScalarMoves_[i] ? shift : 0);
    }
    tickProgress_ = r.tickProgress;
    stallMask_ = r.stallMask;
    ctx_->pc = r.pc;
    ctx_->intRegs = r.intRegs;
    ctx_->fpRegs = r.fpRegs;

    // Each period shifts the period's branch outcomes — the low
    // spinBranches_ bits — into the history once more; after 64 bits
    // the register is a fixed point.
    std::uint64_t history = r.history;
    const std::uint64_t b = spinBranches_;
    if (b > 0 && b < 64) {
        const std::uint64_t low = (std::uint64_t{1} << b) - 1;
        for (std::uint64_t q = 0; q < std::min<std::uint64_t>(k, 64);
             ++q)
            history = (history << b) | (history & low);
    }
    bpred_.setHistory(history);

    for (std::size_t i = 0; i < spinCounters_.size(); ++i) {
        const std::uint64_t target = r.counters[i] + k * spinDeltas_[i];
        *spinCounters_[i] += target - spinCounters_[i]->value();
    }
    auto replay_lru = [k](mem::Cache &cache, std::uint64_t clock,
                          std::uint64_t delta,
                          const std::vector<Addr> &lines,
                          const std::vector<std::uint64_t> &stamps,
                          const std::vector<bool> &moves) {
        cache.setLruClock(clock + k * delta);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (stamps[i] != 0)
                cache.setStamp(lines[i],
                               stamps[i] + (moves[i] ? k * delta : 0));
        }
    };
    replay_lru(mem_->l1i(id_), r.l1iClock, spinClockI_, spinLinesI_,
               r.stampsI, spinStampIMoves_);
    replay_lru(mem_->l1d(id_), r.l1dClock, spinClockD_, spinLinesD_,
               r.stampsD, spinStampDMoves_);
    spinLastTick_ = through;
}

} // namespace remap::cpu
