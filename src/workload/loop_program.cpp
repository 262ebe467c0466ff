/**
 * @file
 * Implementation of the loop-nest program generator.
 */

#include "workload/loop_program.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace leakbound::workload {

namespace {

/** Instructions in a loop latch (compare + branch). */
constexpr std::uint32_t kLatchInstrs = 2;

/** Bytes per instruction (fixed-width encoding). */
constexpr std::uint32_t kInstrBytes = kRunInstrBytes;

} // namespace

NodeSpec
NodeSpec::make_block(const BlockSpec &spec)
{
    NodeSpec node;
    node.kind = Kind::Block;
    node.block = spec;
    return node;
}

NodeSpec
NodeSpec::make_loop(std::uint64_t min_trips, std::uint64_t max_trips,
                    std::vector<NodeSpec> body)
{
    LEAKBOUND_ASSERT(min_trips <= max_trips, "loop trips: min > max");
    NodeSpec node;
    node.kind = Kind::Loop;
    node.min_trips = min_trips;
    node.max_trips = max_trips;
    node.body = std::move(body);
    return node;
}

LoopProgram::LoopProgram(std::string name, Pc code_base,
                         std::vector<NodeSpec> top_level,
                         std::vector<DataPatternPtr> patterns,
                         std::uint64_t seed)
    : name_(std::move(name)), code_base_(code_base),
      patterns_(std::move(patterns)), seed_(seed), run_rng_(seed)
{
    // Static layout: assign PCs and per-instruction kinds with a
    // dedicated RNG so the layout never depends on execution order.
    util::Rng layout_rng(seed ^ 0xc0def00dULL);
    Pc next_pc = code_base_;
    top_.reserve(top_level.size());
    for (const NodeSpec &spec : top_level)
        top_.push_back(flatten(spec, next_pc, layout_rng));
    top_latch_pc_ = next_pc;
    next_pc += kLatchInstrs * kInstrBytes;
    code_bytes_ = next_pc - code_base_;

    start_run();
}

LoopProgram::FlatNode
LoopProgram::flatten(const NodeSpec &spec, Pc &next_pc,
                     util::Rng &layout_rng)
{
    FlatNode node;
    node.kind = spec.kind;
    if (spec.kind == NodeSpec::Kind::Block) {
        const BlockSpec &b = spec.block;
        if (b.mem_fraction > 0.0 &&
            (b.pattern < 0 ||
             static_cast<std::size_t>(b.pattern) >= patterns_.size())) {
            util::fatal("workload '", name_, "': block references ",
                        "pattern ", b.pattern, " but the pool has ",
                        patterns_.size(), " patterns");
        }
        std::vector<CodeBlock::MemSlot> mem;
        for (std::uint32_t i = 0; i < b.instrs; ++i) {
            if (b.pattern >= 0 && layout_rng.next_bool(b.mem_fraction)) {
                mem.push_back({i, layout_rng.next_bool(b.store_fraction)
                                      ? trace::InstrKind::Store
                                      : trace::InstrKind::Load});
            }
        }
        FlatBlock flat{CodeBlock(next_pc, b.instrs, mem)};
        if (b.pattern >= 0 &&
            static_cast<std::size_t>(b.pattern) < patterns_.size())
            flat.pattern =
                patterns_[static_cast<std::size_t>(b.pattern)].get();
        next_pc += static_cast<Pc>(b.instrs) * kInstrBytes;
        node.block_index = blocks_.size();
        blocks_.push_back(std::move(flat));
    } else {
        node.min_trips = spec.min_trips;
        node.max_trips = spec.max_trips;
        node.body.reserve(spec.body.size());
        for (const NodeSpec &child : spec.body)
            node.body.push_back(flatten(child, next_pc, layout_rng));
        node.latch_pc = next_pc;
        next_pc += kLatchInstrs * kInstrBytes;
    }
    return node;
}

void
LoopProgram::start_run()
{
    run_rng_ = util::Rng(seed_ ^ 0x5eedULL);
    stack_.clear();
    stack_.push_back(Frame{nullptr, 0, 0});
    cur_block_ = nullptr;
    instr_idx_ = 0;
    latch_pc_ = 0;
    latch_idx_ = 0;
}

const std::vector<LoopProgram::FlatNode> &
LoopProgram::body_of(const Frame &frame) const
{
    return frame.loop ? frame.loop->body : top_;
}

void
LoopProgram::advance()
{
    if (cur_block_ != nullptr) {
        cur_block_ = nullptr;
        return;
    }
    Frame &frame = stack_.back();
    const std::vector<FlatNode> &body = body_of(frame);
    if (frame.pos < body.size()) {
        const FlatNode &node = body[frame.pos++];
        if (node.kind == NodeSpec::Kind::Block) {
            cur_block_ = &blocks_[node.block_index];
            instr_idx_ = 0;
        } else {
            const std::uint64_t trips =
                run_rng_.next_in(node.min_trips, node.max_trips);
            if (trips > 0)
                stack_.push_back(Frame{&node, trips, 0});
        }
        return;
    }

    // Body finished: arm the latch, then either iterate or exit.
    latch_pc_ = frame.loop ? frame.loop->latch_pc : top_latch_pc_;
    latch_idx_ = 0;
    if (frame.loop == nullptr) {
        frame.pos = 0; // the top-level loop runs forever
    } else if (--frame.trips_left > 0) {
        frame.pos = 0;
    } else {
        stack_.pop_back();
    }
}

std::uint64_t
LoopProgram::next_runs(RunBatch &batch, std::uint64_t max_instrs)
{
    // Two emitting states (a latch, a straight-line block) and the
    // silent interpreter steps between them.  Emission stops right
    // after the last budgeted instruction, so the state a budget of
    // one leaves behind is the state after exactly one instruction.
    std::uint64_t got = 0;
    while (got < max_instrs && !batch.full()) {
        if (latch_pc_ != 0) {
            const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                kLatchInstrs - latch_idx_, max_instrs - got));
            batch.runs[batch.num_runs++] =
                Run{latch_pc_ + static_cast<Pc>(latch_idx_) * kInstrBytes,
                    n, 0};
            got += n;
            latch_idx_ += n;
            if (latch_idx_ == kLatchInstrs)
                latch_pc_ = 0;
        } else if (cur_block_ != nullptr &&
                   instr_idx_ < cur_block_->code.instrs()) {
            const std::uint32_t n = cur_block_->code.emit(
                instr_idx_, max_instrs - got, cur_block_->pattern, batch);
            instr_idx_ += n;
            got += n;
        } else {
            advance();
        }
    }
    return got;
}

void
LoopProgram::reset()
{
    for (auto &p : patterns_)
        p->reset();
    start_run();
}

bool
LoopProgram::node_constant_trips(const FlatNode &node) const
{
    if (node.kind == NodeSpec::Kind::Block)
        return true;
    if (node.min_trips != node.max_trips)
        return false;
    for (const FlatNode &child : node.body)
        if (!node_constant_trips(child))
            return false;
    return true;
}

std::uint64_t
LoopProgram::node_instrs(const FlatNode &node) const
{
    if (node.kind == NodeSpec::Kind::Block)
        return blocks_[node.block_index].code.instrs();
    // A zero-trip loop is skipped entirely: no body, no latch (entering
    // it still consumes one RNG draw, which is why the draw must be a
    // constant for the profile to hold).
    const std::uint64_t trips = node.min_trips;
    if (trips == 0)
        return 0;
    std::uint64_t body = 0;
    for (const FlatNode &child : node.body)
        body += node_instrs(child);
    return trips * (body + kLatchInstrs);
}

std::optional<AnalyticProfile>
LoopProgram::analytic_profile() const
{
    for (const FlatNode &node : top_)
        if (!node_constant_trips(node))
            return std::nullopt;
    std::vector<std::uint64_t> scratch;
    for (const auto &p : patterns_)
        if (!p->append_state(scratch))
            return std::nullopt;

    AnalyticProfile profile;
    profile.period_instructions = kLatchInstrs; // the top-level latch
    for (const FlatNode &node : top_)
        profile.period_instructions += node_instrs(node);
    return profile;
}

bool
LoopProgram::append_state(std::vector<std::uint64_t> &out) const
{
    constexpr std::uint64_t kNone = ~static_cast<std::uint64_t>(0);

    out.push_back(stack_.size());
    for (const Frame &frame : stack_) {
        out.push_back(frame.loop ? frame.loop->latch_pc : kNone);
        out.push_back(frame.trips_left);
        out.push_back(frame.pos);
    }
    out.push_back(cur_block_ ? cur_block_->code.base_pc() : kNone);
    out.push_back(instr_idx_);
    out.push_back(latch_pc_);
    out.push_back(latch_idx_);
    for (const auto &p : patterns_)
        if (!p->append_state(out))
            return false;
    return true;
}

} // namespace leakbound::workload
