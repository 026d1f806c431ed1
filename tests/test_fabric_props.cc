/** @file Property-based fabric tests: invariants under randomized
 *  initiation streams, partitionings and function shapes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <memory>
#include <set>

#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "spl/fabric.hh"
#include "spl/function.hh"

namespace remap::spl
{
namespace
{

struct Shape
{
    unsigned partitions;
    unsigned rows; ///< rows of the test function
};

class FabricProps : public ::testing::TestWithParam<Shape>
{
};

/** Chain function: output = input + rows (one AddImm per row). */
SplFunction
chain(unsigned rows)
{
    FunctionBuilder b("chain", 1);
    for (unsigned i = 0; i < rows; ++i)
        b.row().op(WOp::AddImm, 0, 0, 0, 1);
    return b.outputs({0}).build();
}

TEST_P(FabricProps, RandomStreamPreservesFifoPerCoreAndValues)
{
    const Shape shape = GetParam();
    SplParams params;
    ConfigStore store;
    ConfigId cfg = store.add(chain(shape.rows));
    BarrierUnit barriers(params);
    SplFabric fabric(0, params, &store, &barriers);
    barriers.attachFabrics({&fabric});
    for (unsigned c = 0; c < 4; ++c)
        fabric.threadTable().map(c, c, 0);
    fabric.setPartitions(shape.partitions);

    Rng rng(shape.partitions * 1000 + shape.rows);
    std::deque<std::int32_t> expected[4];
    unsigned sent[4] = {0, 0, 0, 0};
    unsigned received = 0;
    const unsigned per_core = 200;

    Cycle now = 0;
    while (received < 4 * per_core) {
        // Randomly interleave sends and receives.
        unsigned c = static_cast<unsigned>(rng.below(4));
        if (sent[c] < per_core && fabric.canInit(c, -1) &&
            rng.below(2)) {
            std::int32_t v =
                static_cast<std::int32_t>(rng.below(100000));
            fabric.load(c, 0, v);
            fabric.init(c, cfg, -1, now);
            expected[c].push_back(
                v + static_cast<std::int32_t>(shape.rows));
            ++sent[c];
        }
        for (unsigned d = 0; d < 4; ++d) {
            if (fabric.outputReady(d, now)) {
                ASSERT_FALSE(expected[d].empty());
                EXPECT_EQ(fabric.popOutput(d), expected[d].front());
                expected[d].pop_front();
                ++received;
            }
        }
        fabric.tick(now);
        ++now;
        ASSERT_LT(now, 4'000'000u) << "fabric wedged";
    }
    EXPECT_TRUE(fabric.idle());
    EXPECT_EQ(fabric.initiations.value(), 4 * per_core);
    // Row activations: every initiation runs the function's rows.
    EXPECT_EQ(fabric.rowActivations.value(),
              std::uint64_t(4 * per_core) * shape.rows);
}

TEST_P(FabricProps, VirtualizationFlaggedExactlyWhenNeeded)
{
    const Shape shape = GetParam();
    SplParams params;
    ConfigStore store;
    ConfigId cfg = store.add(chain(shape.rows));
    BarrierUnit barriers(params);
    SplFabric fabric(0, params, &store, &barriers);
    barriers.attachFabrics({&fabric});
    fabric.threadTable().map(0, 0, 0);
    fabric.setPartitions(shape.partitions);

    fabric.load(0, 0, 1);
    fabric.init(0, cfg, -1, 0);
    Cycle now = 0;
    while (!fabric.outputReady(0, now)) {
        fabric.tick(now);
        ++now;
        ASSERT_LT(now, 100000u);
    }
    const unsigned part_rows = params.physRows / shape.partitions;
    if (shape.rows > part_rows)
        EXPECT_EQ(fabric.virtualizedInits.value(), 1u);
    else
        EXPECT_EQ(fabric.virtualizedInits.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricProps,
    ::testing::Values(Shape{1, 1}, Shape{1, 10}, Shape{1, 24},
                      Shape{2, 8}, Shape{2, 16}, Shape{4, 4},
                      Shape{4, 12}, Shape{4, 24}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return "p" + std::to_string(info.param.partitions) + "_r" +
               std::to_string(info.param.rows);
    });

TEST(FabricInvariants, BackpressureNeverDropsResults)
{
    // Tiny output queue and a consumer that drains very slowly.
    SplParams params;
    params.outputQueueWords = 4;
    ConfigStore store;
    ConfigId cfg = store.add(functions::passthrough(1));
    BarrierUnit barriers(params);
    SplFabric fabric(0, params, &store, &barriers);
    barriers.attachFabrics({&fabric});
    for (unsigned c = 0; c < 4; ++c)
        fabric.threadTable().map(c, c, 0);

    unsigned sent = 0, got = 0;
    Cycle now = 0;
    while (got < 100) {
        if (sent < 100 && fabric.canInit(0, -1)) {
            fabric.load(0, 0, static_cast<std::int32_t>(sent));
            fabric.init(0, cfg, -1, now);
            ++sent;
        }
        if (now % 97 == 0 && fabric.outputReady(0, now)) {
            EXPECT_EQ(fabric.popOutput(0),
                      static_cast<std::int32_t>(got));
            ++got;
        }
        fabric.tick(now);
        ++now;
        ASSERT_LT(now, 10'000'000u);
    }
    EXPECT_TRUE(fabric.idle());
}

TEST(FabricInvariants, NarrowResultOvertakesParkedWiderOne)
{
    // First fit in acceptance order: with 2 of 4 words free, a parked
    // 3-word result does not fit, but a later 1-word result to the
    // same core does and is delivered first.
    SplParams params;
    params.outputQueueWords = 4;
    ConfigStore store;
    const ConfigId two = store.add(functions::passthrough(2));
    const ConfigId three = store.add(functions::passthrough(3));
    const ConfigId one = store.add(functions::passthrough(1));
    SplFabric fabric(0, params, &store, nullptr);
    fabric.threadTable().map(0, 0, 0);

    const auto issue = [&](ConfigId cfg, unsigned words,
                           std::int32_t base) {
        for (unsigned w = 0; w < words; ++w)
            fabric.load(0, w, base + static_cast<std::int32_t>(w));
        fabric.init(0, cfg, -1, 0);
    };
    issue(two, 2, 10);
    issue(three, 3, 20);
    issue(one, 1, 30);
    Cycle now = 0;
    for (; !(fabric.pendingInitDepth(0) == 0 &&
             fabric.outputQueueDepth(0) == 3);
         ++now) {
        fabric.tick(now);
        ASSERT_LT(now, 10000u);
    }
    // Nothing pops, so the 3-word result stays parked for good.
    for (Cycle end = now + 400; now < end; ++now)
        fabric.tick(now);
    EXPECT_EQ(fabric.outputQueueDepth(0), 3u);
    EXPECT_FALSE(fabric.idle());

    std::vector<std::int32_t> got;
    while (!fabric.idle() || fabric.outputQueueDepth(0) > 0) {
        if (fabric.outputReady(0, now))
            got.push_back(fabric.popOutput(0, now));
        fabric.tick(now++);
        ASSERT_LT(now, 20000u);
    }
    EXPECT_EQ(got, (std::vector<std::int32_t>{10, 11, 30, 20, 21, 22}));
}

/**
 * Reference model of the completion path as a full rescan: every SPL
 * boundary, visit each accepted op in acceptance order; a complete op
 * whose destinations all have room delivers at its completion cycle,
 * otherwise it is due again at the next boundary. Also keeps the
 * fabric's occupancy counters.
 */
struct RescanReference
{
    struct Op
    {
        Cycle complete;
        std::vector<unsigned> dests;
        std::vector<std::int32_t> words;
        bool blocked = false;
    };

    void
    complete(Cycle now)
    {
        for (auto it = ops.begin(); it != ops.end();) {
            bool room = it->complete <= now;
            for (unsigned c : it->dests)
                room = room &&
                    out[c].size() + it->words.size() <= capacity;
            if (!room) {
                if (it->complete <= now) {
                    it->complete = now + step;
                    if (!it->blocked) {
                        it->blocked = true;
                        ++blocks;
                        parkedMax = std::max(parkedMax, ++parked);
                    }
                }
                ++it;
                continue;
            }
            for (unsigned c : it->dests)
                for (std::int32_t w : it->words)
                    out[c].emplace_back(w, it->complete);
            parked -= it->blocked;
            it = ops.erase(it);
        }
        parkedCycles += parked;
    }

    std::size_t capacity;
    Cycle step;
    std::vector<Op> ops;
    std::deque<std::pair<std::int32_t, Cycle>> out[4];
    std::uint64_t parked = 0, parkedMax = 0, parkedCycles = 0, blocks = 0;
};

/**
 * Random traffic through a two-partition fabric with a small output
 * queue: inits of 1/2/4-word results from every core to two shared
 * destinations,
 * barrier broadcasts to 2-3 cores, pops at random cycles, and ticks
 * skipped at random (the run loop never skips one at an SPL boundary
 * with work in flight, but the result must not depend on it). Drives
 * every fabric in @p fabrics in lockstep (they must start equal) and
 * a RescanReference when @p ref is set; each popped word and its
 * availability cycle must agree everywhere.
 */
class RandomTraffic
{
  public:
    explicit RandomTraffic(std::uint64_t seed) : rng_(seed)
    {
        params.outputQueueWords = 6;
        // Widths 1/2/4 with different depths, so ops complete out of
        // acceptance order.
        const unsigned rows[] = {3, 1, 2};
        for (unsigned k = 0; k < 3; ++k) {
            const unsigned width = 1u << k;
            FunctionBuilder b("copy", width);
            std::vector<std::uint8_t> outs;
            b.row();
            for (unsigned w = 0; w < width; ++w) {
                b.op(WOp::Mov, static_cast<std::uint8_t>(w),
                     static_cast<std::uint8_t>(w));
                outs.push_back(static_cast<std::uint8_t>(w));
            }
            for (unsigned r = 1; r < rows[k]; ++r)
                b.row().op(WOp::Mov, 0, 0);
            cfgs_.push_back(store.add(b.outputs(std::move(outs)).build()));
        }
    }

    std::unique_ptr<SplFabric>
    makeFabric() const
    {
        auto f = std::make_unique<SplFabric>(0, params, &store, nullptr);
        f->setPartitions(2);
        for (unsigned c = 0; c < 4; ++c)
            f->threadTable().map(c, c, 0);
        return f;
    }

    /** Run cycles [now_, end), issuing new work only before
     *  @p issue_until; stops early once that work has drained. */
    void
    run(const std::vector<SplFabric *> &fabrics, Cycle end,
        Cycle issue_until, RescanReference *ref)
    {
        SplFabric &lead = *fabrics.front();
        const Cycle step = params.coreCyclesPerSplCycle;
        for (; now_ < end; ++now_) {
            if (now_ < issue_until)
                issue(fabrics);
            else if (drained(fabrics))
                return;
            for (unsigned d = 0; d < 4; ++d) {
                if (rng_.below(5) != 0 || !lead.outputReady(d, now_))
                    continue;
                const Cycle when = lead.outputHeadReadyCycle(d);
                const std::int32_t word = lead.popOutput(d, now_);
                ++popped;
                for (std::size_t i = 1; i < fabrics.size(); ++i) {
                    ASSERT_EQ(fabrics[i]->outputHeadReadyCycle(d), when);
                    ASSERT_EQ(fabrics[i]->popOutput(d, now_), word);
                }
                if (ref) {
                    ASSERT_FALSE(ref->out[d].empty());
                    ASSERT_EQ(ref->out[d].front(),
                              std::make_pair(word, when));
                    ref->out[d].pop_front();
                }
            }
            const std::uint64_t bar_before = lead.barrierOps.value();
            unsigned depth_before[4];
            for (unsigned c = 0; c < 4; ++c)
                depth_before[c] = lead.pendingInitDepth(c);
            // Some ticks are skipped, so ops may complete late and out
            // of acceptance order.
            if (rng_.below(8) == 0)
                continue;
            for (SplFabric *f : fabrics)
                f->tick(now_);
            if (!ref)
                continue;
            if (now_ % step == 0)
                ref->complete(now_);
            // Mirror acceptances in fabric order: partition 0 (cores
            // 0-1, home of every barrier op) before partition 1.
            if (lead.barrierOps.value() != bar_before) {
                accept(*ref, barriers_.front(), 0);
                barriers_.pop_front();
            }
            for (unsigned c = 0; c < 4; ++c) {
                if (lead.pendingInitDepth(c) < depth_before[c]) {
                    accept(*ref, pending_[c].front(), c / 2);
                    pending_[c].pop_front();
                }
            }
            for (unsigned d = 0; d < 4; ++d)
                ASSERT_EQ(lead.outputQueueDepth(d), ref->out[d].size());
        }
    }

    static bool
    drained(const std::vector<SplFabric *> &fabrics)
    {
        for (SplFabric *f : fabrics) {
            if (!f->idle())
                return false;
            for (unsigned d = 0; d < 4; ++d)
                if (f->outputQueueDepth(d) > 0)
                    return false;
        }
        return true;
    }

    SplParams params;
    ConfigStore store;
    std::uint64_t popped = 0;

  private:
    struct Issued
    {
        ConfigId cfg;
        std::vector<unsigned> dests;
        std::vector<std::int32_t> words;
    };

    void
    issue(const std::vector<SplFabric *> &fabrics)
    {
        const unsigned c = static_cast<unsigned>(rng_.below(4));
        const unsigned dest = static_cast<unsigned>(rng_.below(2));
        const std::size_t kind = rng_.below(cfgs_.size());
        const unsigned width = 1u << kind;
        Issued op{cfgs_[kind], {dest}, {}};
        for (unsigned w = 0; w < width; ++w)
            op.words.push_back(static_cast<std::int32_t>(rng_.below(1000)));
        if (rng_.below(48) == 0) {
            // Barrier broadcast, homed in partition 0: the first
            // participant's words go to every participant.
            op.dests = {dest, 2};
            if (rng_.below(2))
                op.dests.push_back(3);
            for (SplFabric *f : fabrics)
                f->enqueueBarrierOp(op.cfg, op.dests, {op.words}, now_);
            barriers_.push_back(std::move(op));
        } else if (rng_.below(3) == 0 && fabrics.front()->canInit(c, dest)) {
            for (SplFabric *f : fabrics) {
                for (unsigned w = 0; w < width; ++w)
                    f->load(c, w, op.words[w]);
                f->init(c, op.cfg, dest, now_);
            }
            pending_[c].push_back(std::move(op));
        }
    }

    /** Mirror an acceptance at now_ by partition @p part into
     *  @p ref (every configuration stays resident once loaded). */
    void
    accept(RescanReference &ref, const Issued &op, unsigned part)
    {
        const Cycle step = params.coreCyclesPerSplCycle;
        const Cycle rows = store.get(op.cfg).rows();
        Cycle start = now_;
        if (resident_[part].insert(op.cfg).second)
            start += rows * params.configLoadSplCyclesPerRow * step;
        ref.ops.push_back(
            {start + (rows + params.outputTransferSplCycles) * step,
             op.dests, op.words});
    }

    Rng rng_;
    Cycle now_ = 0;
    std::vector<ConfigId> cfgs_;
    std::deque<Issued> pending_[4];
    std::deque<Issued> barriers_;
    std::set<ConfigId> resident_[2];
};

TEST(FabricResultPath, MatchesFullRescanReference)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        RandomTraffic traffic(seed);
        auto fabric = traffic.makeFabric();
        RescanReference ref{traffic.params.outputQueueWords,
                            traffic.params.coreCyclesPerSplCycle, {}, {}};
        traffic.run({fabric.get()}, 100000, 8000, &ref);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << seed;
        EXPECT_TRUE(RandomTraffic::drained({fabric.get()})) << seed;
        EXPECT_TRUE(ref.ops.empty()) << seed;
        EXPECT_GT(traffic.popped, 2000u) << seed;
        EXPECT_GT(ref.blocks, 100u) << seed;
        EXPECT_EQ(fabric->outputFullBlocks.value(), ref.blocks) << seed;
        EXPECT_EQ(fabric->parkedResultsMax.value(), ref.parkedMax) << seed;
        EXPECT_EQ(fabric->parkedResultSplCycles.value(), ref.parkedCycles)
            << seed;
    }
}

TEST(FabricResultPath, SaveRestoreMidBacklog)
{
    RandomTraffic traffic(9);
    auto original = traffic.makeFabric();
    traffic.run({original.get()}, 3001, 3001, nullptr);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_FALSE(original->idle());

    snap::Serializer saved;
    original->save(saved);
    auto restored = traffic.makeFabric();
    snap::Deserializer d(saved.buffer());
    restored->restore(d);
    ASSERT_TRUE(d.ok()) << d.error();
    snap::Serializer resaved;
    restored->save(resaved);
    EXPECT_EQ(resaved.buffer(), saved.buffer());

    // Both continue with the same pops and new work, delivering the
    // same words at the same cycles, and end in the same state.
    const std::uint64_t before = traffic.popped;
    traffic.run({original.get(), restored.get()}, 100000, 5000, nullptr);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(traffic.popped, before + 1000);
    EXPECT_TRUE(
        RandomTraffic::drained({original.get(), restored.get()}));
    snap::Serializer end_a, end_b;
    original->save(end_a);
    restored->save(end_b);
    EXPECT_EQ(end_a.buffer(), end_b.buffer());
}

/** Everything a quiet fabric-bound core tick reads of its port,
 *  plus the port's change count. */
struct PortView
{
    bool funcReady = false;   ///< funcPop() would return a value
    Cycle headReady = 0;      ///< decides outputReady() at any cycle
    bool canInit[6] = {};     ///< self, then destination threads 0-4
    std::uint64_t changes = 0;

    bool
    sameAnswers(const PortView &o) const
    {
        return funcReady == o.funcReady && headReady == o.headReady &&
               std::equal(std::begin(canInit), std::end(canInit),
                          std::begin(o.canInit));
    }
};

PortView
viewPort(const SplFabric &fabric, unsigned core, Cycle now)
{
    PortView v;
    v.funcReady = fabric.funcOutputDepth(core) > 0;
    v.headReady = fabric.outputHeadReadyCycle(core);
    EXPECT_EQ(fabric.outputReady(core, now), v.headReady <= now);
    v.canInit[0] = fabric.canInit(core, -1);
    for (unsigned t = 0; t < 5; ++t)
        v.canInit[t + 1] = fabric.canInit(core, t);
    v.changes = fabric.portChanges(core);
    return v;
}

TEST(FabricPortChanges, EveryAnswerChangeMovesTheCount)
{
    // A core sleeping on its port wakes when portChanges() moves or
    // its own horizon (outputHeadReadyCycle) passes. So between any
    // two observations of a port, a different answer from funcPop
    // availability, the output head, or canInit must come with a
    // different count — whichever core, barrier release, remap or
    // fabric tick caused it.
    SplParams params;
    ConfigStore store;
    const ConfigId cfg = store.add(chain(3));
    const ConfigId min_cfg = store.add(functions::globalMin());
    BarrierUnit barriers(params);
    SplFabric fabric(0, params, &store, &barriers);
    barriers.attachFabrics({&fabric});
    barriers.declare(5, 4);
    fabric.setPartitions(2);
    ThreadId thread_on[4];
    for (unsigned c = 0; c < 4; ++c) {
        fabric.threadTable().map(c, c, 0);
        thread_on[c] = c;
    }

    Rng rng(2024);
    Cycle now = 0;
    PortView last[4];
    for (unsigned c = 0; c < 4; ++c)
        last[c] = viewPort(fabric, c, now);
    bool arrived[4] = {}, func_arrived[4] = {};
    unsigned arrivals = 0, func_arrivals = 0;
    std::uint64_t moved = 0;

    for (unsigned step = 0; step < 20000; ++step) {
        const unsigned c = static_cast<unsigned>(rng.below(4));
        const std::int64_t dest =
            static_cast<std::int64_t>(rng.below(6)) - 1;
        switch (rng.below(8)) {
          case 0:
            fabric.funcLoad(c, 0, static_cast<std::int32_t>(step));
            fabric.funcInit(c, cfg, dest);
            break;
          case 1:
            if (fabric.canInit(c, dest)) {
                fabric.load(c, 0, static_cast<std::int32_t>(step));
                fabric.init(c, cfg, dest, now);
            }
            break;
          case 2:
            fabric.funcPop(c);
            break;
          case 3:
            if (fabric.outputReady(c, now))
                fabric.popOutput(c, now);
            break;
          case 4:
            // A barrier round: the functional and timed arrivals
            // complete independently, each releasing to all four.
            if (!func_arrived[c]) {
                fabric.funcLoad(c, 0, static_cast<std::int32_t>(c));
                fabric.funcBar(c, min_cfg, 5);
                func_arrived[c] = true;
                if (++func_arrivals == 4) {
                    std::fill(std::begin(func_arrived),
                              std::end(func_arrived), false);
                    func_arrivals = 0;
                }
            } else if (!arrived[c]) {
                fabric.load(c, 0, static_cast<std::int32_t>(c));
                fabric.bar(c, min_cfg, 5, now);
                arrived[c] = true;
                if (++arrivals == 4) {
                    std::fill(std::begin(arrived), std::end(arrived),
                              false);
                    arrivals = 0;
                }
            }
            break;
          case 5:
            // Remap a quiet core to another thread id, so canInit's
            // destination check changes for every sender.
            if (arrivals == 0 &&
                fabric.threadTable().canSwitchOut(c)) {
                thread_on[c] = static_cast<ThreadId>(rng.below(5));
                fabric.threadTable().unmap(c);
                fabric.threadTable().map(c, thread_on[c], 0);
            }
            break;
          default:
            for (unsigned n = rng.below(9); n > 0; --n)
                fabric.tick(now++);
            break;
        }
        for (unsigned p = 0; p < 4; ++p) {
            const PortView v = viewPort(fabric, p, now);
            if (!v.sameAnswers(last[p])) {
                ++moved;
                EXPECT_NE(v.changes, last[p].changes)
                    << "port " << p << " changed its answers at step "
                    << step << " without moving its change count";
            }
            last[p] = v;
        }
    }
    // The stream must have exercised the property, not skirted it.
    EXPECT_GT(moved, 1000u);
    EXPECT_GT(fabric.initiations.value(), 100u);
    EXPECT_GT(barriers.barriersCompleted.value(), 10u);
}

TEST(FabricInvariants, ReduceRowsMonotonic)
{
    auto fn = functions::globalMin();
    unsigned prev = 0;
    for (unsigned n = 2; n <= 16; ++n) {
        unsigned rows = fn.barrierRows(n);
        EXPECT_GE(rows, prev);
        prev = rows;
    }
}

} // namespace
} // namespace remap::spl
