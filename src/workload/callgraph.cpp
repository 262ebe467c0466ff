/**
 * @file
 * Implementation of the call-graph walker.
 */

#include "workload/callgraph.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace leakbound::workload {

namespace {

constexpr std::uint32_t kInstrBytes = kRunInstrBytes;

} // namespace

CallGraphProgram::CallGraphProgram(std::string name, Pc code_base,
                                   const CallGraphSpec &spec,
                                   std::vector<DataPatternPtr> patterns,
                                   std::uint64_t seed)
    : name_(std::move(name)), spec_(spec), patterns_(std::move(patterns)),
      seed_(seed), run_rng_(seed)
{
    using util::fatal;
    if (spec_.num_functions == 0)
        fatal("callgraph '", name_, "': needs at least one function");
    if (spec_.min_instrs == 0 || spec_.min_instrs > spec_.max_instrs)
        fatal("callgraph '", name_, "': bad body size range");
    if (spec_.repeat_min == 0 || spec_.repeat_min > spec_.repeat_max)
        fatal("callgraph '", name_, "': bad repeat range");
    if (spec_.mem_fraction > 0.0 && patterns_.empty())
        fatal("callgraph '", name_, "': memory fraction set but no ",
              "data patterns supplied");

    util::Rng layout_rng(seed ^ 0xca11c0deULL);
    functions_.resize(spec_.num_functions);
    Pc next_pc = code_base;
    std::vector<CodeBlock::MemSlot> mem; // one body's, reused
    for (std::uint32_t i = 0; i < spec_.num_functions; ++i) {
        Function &fn = functions_[i];
        const std::uint32_t size = static_cast<std::uint32_t>(
            layout_rng.next_in(spec_.min_instrs, spec_.max_instrs));
        mem.clear();
        for (std::uint32_t k = 0; k < size; ++k) {
            if (!patterns_.empty() &&
                layout_rng.next_bool(spec_.mem_fraction)) {
                mem.push_back({k, layout_rng.next_bool(spec_.store_fraction)
                                      ? trace::InstrKind::Store
                                      : trace::InstrKind::Load});
            }
        }
        fn.body = CodeBlock(next_pc, size, mem);
        next_pc += static_cast<Pc>(size) * kInstrBytes;
        if (!patterns_.empty()) {
            fn.pattern =
                patterns_[layout_rng.next_below(patterns_.size())].get();
        }
        // Callees: locality-biased — mostly the near neighbourhood,
        // with occasional long jumps that make the walk drift.
        fn.callees.reserve(spec_.fanout);
        for (std::uint32_t c = 0; c < spec_.fanout; ++c) {
            std::uint32_t callee;
            if (layout_rng.next_bool(spec_.locality) &&
                spec_.num_functions > 1) {
                const std::uint64_t span = 2ULL * spec_.neighbourhood + 1;
                const std::int64_t offset =
                    static_cast<std::int64_t>(
                        layout_rng.next_below(span)) -
                    spec_.neighbourhood;
                std::int64_t target = static_cast<std::int64_t>(i) + offset;
                const auto n =
                    static_cast<std::int64_t>(spec_.num_functions);
                target = ((target % n) + n) % n;
                callee = static_cast<std::uint32_t>(target);
            } else {
                callee = static_cast<std::uint32_t>(
                    layout_rng.next_below(spec_.num_functions));
            }
            fn.callees.push_back(callee);
        }
    }
    code_bytes_ = next_pc - code_base;

    start_run();
}

void
CallGraphProgram::start_run()
{
    run_rng_ = util::Rng(seed_ ^ 0x0a1c5eedULL);
    enter(0);
}

void
CallGraphProgram::enter(std::uint32_t function)
{
    current_ = function;
    repeats_left_ = static_cast<std::uint32_t>(
        run_rng_.next_in(spec_.repeat_min, spec_.repeat_max));
    instr_idx_ = 0;
}

std::uint64_t
CallGraphProgram::next_runs(RunBatch &batch, std::uint64_t max_instrs)
{
    // Drain the current body; once it is spent, repeat it or call out
    // (the walk's RNG draws), lazily, right before the next emission.
    std::uint64_t got = 0;
    while (got < max_instrs && !batch.full()) {
        const Function &fn = functions_[current_];
        if (instr_idx_ >= fn.body.instrs()) {
            if (repeats_left_ > 1) {
                --repeats_left_;
                instr_idx_ = 0;
            } else {
                const auto &callees = fn.callees;
                enter(callees.empty()
                          ? static_cast<std::uint32_t>(
                                run_rng_.next_below(functions_.size()))
                          : callees[run_rng_.next_below(callees.size())]);
            }
            continue;
        }
        const std::uint32_t n =
            fn.body.emit(instr_idx_, max_instrs - got, fn.pattern, batch);
        instr_idx_ += n;
        got += n;
    }
    return got;
}

void
CallGraphProgram::reset()
{
    for (auto &p : patterns_)
        p->reset();
    start_run();
}

} // namespace leakbound::workload
