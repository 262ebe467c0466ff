/**
 * @file
 * The per-µop views of a workload's run stream, and the composite
 * (multi-phase) workload.
 */

#include "workload/workload.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace leakbound::workload {

std::size_t
Workload::next_batch(trace::MicroOp *out, std::size_t max)
{
    // The budget bounds every next_runs() call, so nothing is left
    // buffered here between calls.
    RunBatch batch;
    std::size_t got = 0;
    while (got < max) {
        batch.clear();
        if (next_runs(batch, max - got) == 0)
            break;
        const MemRef *ref = batch.refs;
        for (std::size_t r = 0; r < batch.num_runs; ++r) {
            const Run &run = batch.runs[r];
            const MemRef *ref_end = ref + run.mem_count;
            for (std::uint32_t i = 0; i < run.instrs; ++i) {
                trace::MicroOp &op = out[got++];
                op.pc = run.pc + static_cast<Pc>(i) * kRunInstrBytes;
                if (ref != ref_end && ref->offset == i) {
                    op.kind = ref->kind;
                    op.addr = ref->addr;
                    ++ref;
                } else {
                    op.kind = trace::InstrKind::Op;
                    op.addr = kInvalidAddr;
                }
            }
        }
    }
    return got;
}

CompositeWorkload::CompositeWorkload(std::string name,
                                     std::vector<Phase> phases)
    : name_(std::move(name)), phases_(std::move(phases))
{
    LEAKBOUND_ASSERT(!phases_.empty(), "composite needs phases");
    for (const Phase &p : phases_) {
        LEAKBOUND_ASSERT(p.child != nullptr, "composite phase is null");
        LEAKBOUND_ASSERT(p.quantum > 0, "composite quantum must be > 0");
    }
}

std::uint64_t
CompositeWorkload::next_runs(RunBatch &batch, std::uint64_t max_instrs)
{
    // Take runs from the current phase bounded by its remaining
    // quantum, rotating once the quantum is spent or the child runs
    // dry.  `dry` counts consecutive phases that produced nothing; a
    // full round of them means every child is exhausted.
    std::uint64_t got = 0;
    std::size_t dry = 0;
    while (got < max_instrs && dry <= phases_.size() && !batch.full()) {
        Phase &phase = phases_[current_];
        if (executed_in_phase_ >= phase.quantum) {
            current_ = (current_ + 1) % phases_.size();
            executed_in_phase_ = 0;
            continue;
        }
        const std::uint64_t g = phase.child->next_runs(
            batch, std::min(max_instrs - got,
                            phase.quantum - executed_in_phase_));
        executed_in_phase_ += g;
        got += g;
        if (g != 0) {
            dry = 0;
        } else { // the batch has room, so the child is exhausted
            current_ = (current_ + 1) % phases_.size();
            executed_in_phase_ = 0;
            ++dry;
        }
    }
    return got;
}

void
CompositeWorkload::reset()
{
    for (Phase &p : phases_)
        p.child->reset();
    current_ = 0;
    executed_in_phase_ = 0;
}

} // namespace leakbound::workload
