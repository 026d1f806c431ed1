/**
 * @file
 * Shared helpers for the workload kernels: software queue and barrier
 * emitters, run assembly, and register conventions.
 *
 * Register conventions used across kernels (integer file):
 *   x1..x9    loop counters / bounds / scratch
 *   x10..x29  kernel data pointers and values
 *   x30..x49  communication helpers (queue pointers, indices)
 *   x50..x63  barrier helpers
 */

#ifndef REMAP_WORKLOADS_KERNELS_COMMON_HH
#define REMAP_WORKLOADS_KERNELS_COMMON_HH

#include <string>

#include "isa/builder.hh"
#include "workloads/inputs.hh"
#include "workloads/workload.hh"

namespace remap::workloads::detail
{

/** A software ring buffer laid out in simulated memory. */
struct SwQueueLayout
{
    Addr head = 0;  ///< consumer-advanced index (own cache line)
    Addr tail = 0;  ///< producer-advanced index (own cache line)
    Addr data = 0;  ///< capacity x 8-byte slots
    unsigned capacity = 64; ///< power of two

    /** Carve the queue out of @p alloc. */
    static SwQueueLayout
    make(AddrAllocator &alloc, unsigned capacity = 64)
    {
        SwQueueLayout q;
        q.capacity = capacity;
        q.head = alloc.alloc(64, 64);
        q.tail = alloc.alloc(64, 64);
        q.data = alloc.alloc(std::size_t(capacity) * 8, 64);
        return q;
    }
};

/**
 * Emits spin-based push/pop sequences for a SwQueueLayout, in the
 * naive textbook form: each operation re-reads the far side's index
 * and publishes its own, so every element transfer costs coherence
 * misses on the index lines and the data line — exactly the software
 * overhead the paper's Section V-B comparison measures.
 *
 * Register assignments are supplied per emitter so a program can use
 * several queues at once (e.g. astar's feedback channel). Default
 * register plan: x30 cached remote index, x31 local index, x34/x35
 * scratch, x36 capacity constant.
 */
class SwQueueEmitter
{
  public:
    /** Register plan for one side of one queue. */
    struct Regs
    {
        isa::RegIndex remote = 30; ///< cached far-side index
        isa::RegIndex local = 31;  ///< own index
        isa::RegIndex s1 = 34;     ///< scratch (shareable)
        isa::RegIndex s2 = 35;     ///< scratch (shareable)
        isa::RegIndex cap = 36;    ///< capacity constant
    };

    SwQueueEmitter(const SwQueueLayout &q, std::string prefix,
                   Regs regs)
        : q_(q), prefix_(std::move(prefix)), r_(regs)
    {
    }

    /** Convenience constructor using the default register plan. */
    SwQueueEmitter(const SwQueueLayout &q, std::string prefix)
        : SwQueueEmitter(q, std::move(prefix), Regs())
    {
    }

    /** Initialize this side's registers (emit once, at entry). */
    void
    init(isa::ProgramBuilder &b)
    {
        b.li(r_.remote, 0).li(r_.local, 0).li(r_.cap, q_.capacity);
    }

    /** Push register @p v (producer side). */
    void
    push(isa::ProgramBuilder &b, isa::RegIndex v)
    {
        const std::string retry = label("push_retry");
        const std::string go = label("push_go");
        b.label(retry)
            .li(r_.s2, static_cast<std::int64_t>(q_.head))
            .ld(r_.remote, r_.s2, 0)         // re-read remote head
            .sub(r_.s1, r_.local, r_.remote) // in-flight
            .blt(r_.s1, r_.cap, go)
            .j(retry)
            .label(go)
            .li(r_.s2, q_.capacity - 1)
            .and_(r_.s1, r_.local, r_.s2)    // slot = tail & (cap-1)
            .slli(r_.s1, r_.s1, 3)
            .li(r_.s2, static_cast<std::int64_t>(q_.data))
            .add(r_.s1, r_.s1, r_.s2)
            .sd(v, r_.s1, 0)
            .addi(r_.local, r_.local, 1)
            .li(r_.s2, static_cast<std::int64_t>(q_.tail))
            .sd(r_.local, r_.s2, 0);         // publish tail
    }

    /** Pop into register @p v (consumer side). */
    void
    pop(isa::ProgramBuilder &b, isa::RegIndex v)
    {
        const std::string retry = label("pop_retry");
        const std::string go = label("pop_go");
        b.label(retry)
            .li(r_.s2, static_cast<std::int64_t>(q_.tail))
            .ld(r_.remote, r_.s2, 0)         // re-read remote tail
            .blt(r_.local, r_.remote, go)
            .j(retry)
            .label(go)
            .li(r_.s2, q_.capacity - 1)
            .and_(r_.s1, r_.local, r_.s2)
            .slli(r_.s1, r_.s1, 3)
            .li(r_.s2, static_cast<std::int64_t>(q_.data))
            .add(r_.s1, r_.s1, r_.s2)
            .ld(v, r_.s1, 0)
            .addi(r_.local, r_.local, 1)
            .li(r_.s2, static_cast<std::int64_t>(q_.head))
            .sd(r_.local, r_.s2, 0);         // publish head
    }

  private:
    std::string
    label(const char *what)
    {
        return prefix_ + "_" + what + "_" + std::to_string(seq_++);
    }

    SwQueueLayout q_;
    std::string prefix_;
    Regs r_;
    unsigned seq_ = 0;
};

/** Memory cells of a sense-reversing software barrier. */
struct SwBarrierLayout
{
    Addr count = 0;
    Addr sense = 0;

    static SwBarrierLayout
    make(AddrAllocator &alloc)
    {
        SwBarrierLayout l;
        l.count = alloc.alloc(64, 64);
        l.sense = alloc.alloc(64, 64);
        return l;
    }
};

/**
 * Emit one sense-reversing software barrier episode.
 *
 * Fixed registers: x50 local sense, x51 constant 1, x52 count addr,
 * x53 sense addr, x54 total-1, x55/x56 scratch.
 * Callers must emit emitSwBarrierInit() once before the first use.
 */
void emitSwBarrierInit(isa::ProgramBuilder &b,
                       const SwBarrierLayout &l, unsigned total);
void emitSwBarrier(isa::ProgramBuilder &b, const std::string &prefix);

/**
 * Emit one ReMAP barrier episode with the passthrough token config
 * @p token_cfg (pops the release token into x55). Stages a zero.
 */
void emitHwBarrier(isa::ProgramBuilder &b, std::int64_t token_cfg,
                   std::uint32_t barrier_id);

/** Create a PreparedRun shell around @p config. */
PreparedRun newRun(std::string name, const sys::SystemConfig &config);

/**
 * Variant plumbing shared by the communicating kernels: returns the
 * SystemConfig for @p v (Seq -> 1xOOO1; SeqOoo2 -> 1xOOO2; Comp/Comm/
 * CompComm -> SPL cluster with the paper's half-fabric partitioning
 * for communicating pairs; Ooo2Comm -> OOO2 + ideal comm network;
 * SwQueue -> 2xOOO1, no fabric).
 */
sys::SystemConfig commVariantConfig(Variant v);

/** True when @p v runs two communicating threads. */
bool isPairVariant(Variant v);

} // namespace remap::workloads::detail

#endif // REMAP_WORKLOADS_KERNELS_COMMON_HH
