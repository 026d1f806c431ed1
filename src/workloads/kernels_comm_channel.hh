/**
 * @file
 * Channel — variant-independent communication plumbing for the
 * producer/consumer kernels. Hides whether words travel through the
 * SPL (with a passthrough or computing configuration), the idealized
 * OOO2+Comm network, or a memory-based software queue.
 */

#ifndef REMAP_WORKLOADS_KERNELS_COMM_CHANNEL_HH
#define REMAP_WORKLOADS_KERNELS_COMM_CHANNEL_HH

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>

#include "workloads/kernels_common.hh"
#include "workloads/spl_functions.hh"

namespace remap::workloads
{

/** One-directional producer->consumer channel for a kernel pair. */
class Channel
{
  public:
    /**
     * @param r run under construction (registers SPL configs on it)
     * @param v variant being built
     * @param alloc address allocator (for software-queue storage)
     * @param prefix label prefix for queue spin loops
     * @param comp_fn factory for the integrated-computation config
     * @param pass_fn factory for the communication-only config
     */
    Channel(PreparedRun &r, Variant v, AddrAllocator &alloc,
            std::string prefix,
            const std::function<spl::SplFunction()> &comp_fn,
            const std::function<spl::SplFunction()> &pass_fn)
        : variant_(v)
    {
        switch (v) {
          case Variant::Comp:
          case Variant::CompComm:
            compCfg_ = r.system->registerFunction(comp_fn());
            break;
          case Variant::Comm:
          case Variant::Ooo2Comm:
            passCfg_ = r.system->registerFunction(pass_fn());
            break;
          case Variant::SwQueue: {
            layout_ = detail::SwQueueLayout::make(alloc);
            prodQ_ = std::make_unique<detail::SwQueueEmitter>(
                layout_, prefix + "_p");
            consQ_ = std::make_unique<detail::SwQueueEmitter>(
                layout_, prefix + "_c");
            break;
          }
          default:
            break;
        }
    }

    /** True when the channel variant computes inside the fabric. */
    bool computeInFabric() const
    {
        return variant_ == Variant::CompComm;
    }

    /** Config id of the computing function (Comp / CompComm). */
    ConfigId compCfg() const { return compCfg_; }

    /** Emit producer-side one-time setup. */
    void
    producerInit(isa::ProgramBuilder &b)
    {
        if (prodQ_)
            prodQ_->init(b);
    }

    /** Emit consumer-side one-time setup. */
    void
    consumerInit(isa::ProgramBuilder &b)
    {
        if (consQ_)
            consQ_->init(b);
    }

    /** Emit a send of @p regs (one message). */
    void
    send(isa::ProgramBuilder &b,
         std::initializer_list<isa::RegIndex> regs)
    {
        if (prodQ_) {
            for (isa::RegIndex v : regs)
                prodQ_->push(b, v);
            return;
        }
        unsigned idx = 0;
        for (isa::RegIndex v : regs)
            b.splLoad(v, idx++);
        b.splInit(computeInFabric() ? compCfg_ : passCfg_,
                  /*dest thread=*/1);
    }

    /** Emit a receive into @p regs, in send/output order. */
    void
    recv(isa::ProgramBuilder &b,
         std::initializer_list<isa::RegIndex> regs)
    {
        if (consQ_) {
            for (isa::RegIndex v : regs)
                consQ_->pop(b, v);
            return;
        }
        for (isa::RegIndex v : regs)
            b.splStore(v, 0);
    }

    /** One memory-sourced (or register) message word. */
    struct MemWord
    {
        isa::RegIndex base;
        std::int64_t off = 0;
        bool byte = false;
        bool reg = false; ///< send the register value itself
    };

    /**
     * Emit a send whose words come straight from memory. On the SPL
     * this uses the paper's L1D-to-input-queue spl_load path (one
     * instruction per word); the software queue must load into
     * @p scratch and push.
     */
    void
    sendMem(isa::ProgramBuilder &b, const std::vector<MemWord> &ws,
            isa::RegIndex scratch)
    {
        if (prodQ_) {
            for (const MemWord &w : ws) {
                if (w.reg) {
                    prodQ_->push(b, w.base);
                    continue;
                }
                if (w.byte)
                    b.lbu(scratch, w.base, w.off);
                else
                    b.lw(scratch, w.base, w.off);
                prodQ_->push(b, scratch);
            }
            return;
        }
        unsigned idx = 0;
        for (const MemWord &w : ws) {
            if (w.reg)
                b.splLoad(w.base, idx++);
            else if (w.byte)
                b.splLoadMB(w.base, w.off, idx++);
            else
                b.splLoadM(w.base, w.off, idx++);
        }
        b.splInit(computeInFabric() ? compCfg_ : passCfg_,
                  /*dest thread=*/1);
    }

  private:
    Variant variant_;
    ConfigId compCfg_ = 0;
    ConfigId passCfg_ = 0;
    detail::SwQueueLayout layout_{};
    std::unique_ptr<detail::SwQueueEmitter> prodQ_;
    std::unique_ptr<detail::SwQueueEmitter> consQ_;
};

/**
 * Software-pipelined produce/consume driver for single-thread SPL
 * kernels: keeps @p depth initiations in flight. x1 = produce
 * counter, x2 = consume counter, x3 = total (set by the caller).
 * Does not emit halt() — callers may append epilogue code.
 */
inline void
emitPipelinedComm(isa::ProgramBuilder &b, unsigned depth,
                  const std::function<void(isa::ProgramBuilder &)>
                      &produce,
                  const std::function<void(isa::ProgramBuilder &)>
                      &consume)
{
    b.li(1, 0).li(2, 0);
    for (unsigned i = 0; i < depth; ++i) {
        const std::string skip =
            "pipec_prologue_skip_" + std::to_string(i);
        b.bge(1, 3, skip);
        produce(b);
        b.addi(1, 1, 1);
        b.label(skip);
    }
    b.label("pipec_loop").bge(2, 3, "pipec_done");
    b.bge(1, 3, "pipec_noprod");
    produce(b);
    b.addi(1, 1, 1);
    b.label("pipec_noprod");
    consume(b);
    b.addi(2, 2, 1).j("pipec_loop").label("pipec_done");
}

} // namespace remap::workloads

#endif // REMAP_WORKLOADS_KERNELS_COMM_CHANNEL_HH
