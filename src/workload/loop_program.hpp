/**
 * @file
 * Loop-nest program generator.
 *
 * A LoopProgram is a tree of straight-line blocks and counted loops
 * (with per-entry random trip counts), executed forever from the top.
 * It reproduces the interval anatomy of paper Figure 2: the re-access
 * interval of an outer-loop instruction is governed by the inner
 * loop's (possibly varying) trip count.
 *
 * Static properties (PCs, which instructions are loads/stores) are
 * fixed at construction from the seed; dynamic properties (trip
 * counts, data addresses) are drawn during execution, also seeded, so
 * runs are exactly reproducible.
 */

#ifndef LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP
#define LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP

#include <vector>

#include "util/random.hpp"
#include "workload/code_block.hpp"
#include "workload/data_pattern.hpp"
#include "workload/workload.hpp"

namespace leakbound::workload {

/** A straight-line block of instructions. */
struct BlockSpec
{
    std::uint32_t instrs = 16;    ///< instructions in the block
    double mem_fraction = 0.25;   ///< fraction that reference memory
    double store_fraction = 0.3;  ///< of those, fraction that store
    int pattern = -1;             ///< pattern-pool index; -1 = none
};

/** A node of the loop tree: either a block or a counted loop. */
struct NodeSpec
{
    enum class Kind { Block, Loop };

    Kind kind = Kind::Block;
    BlockSpec block;              ///< valid when kind == Block
    std::uint64_t min_trips = 1;  ///< valid when kind == Loop
    std::uint64_t max_trips = 1;  ///< trip count drawn per loop entry
    std::vector<NodeSpec> body;   ///< valid when kind == Loop

    /** Make a block node. */
    static NodeSpec make_block(const BlockSpec &spec);

    /** Make a loop node with trips drawn uniformly per entry. */
    static NodeSpec make_loop(std::uint64_t min_trips,
                              std::uint64_t max_trips,
                              std::vector<NodeSpec> body);
};

/** The loop-nest workload. */
class LoopProgram final : public Workload
{
  public:
    /**
     * @param name benchmark name
     * @param code_base PC of the first instruction
     * @param top_level program body, executed in an endless loop
     * @param patterns data-pattern pool referenced by BlockSpec::pattern
     * @param seed drives both static layout and dynamic draws
     */
    LoopProgram(std::string name, Pc code_base,
                std::vector<NodeSpec> top_level,
                std::vector<DataPatternPtr> patterns, std::uint64_t seed);

    std::string name() const override { return name_; }
    std::uint64_t next_runs(RunBatch &batch,
                            std::uint64_t max_instrs) override;
    void reset() override;

    /**
     * A profile when every loop has a constant trip count
     * (min == max) and every referenced pattern is deterministically
     * periodic; the period is the instruction count of one top-level
     * pass (blocks + latches, counted loops expanded).
     */
    std::optional<AnalyticProfile> analytic_profile() const override;

    /**
     * Interpreter state: stack frames, current block position, latch
     * progress, and each pattern's position.  The run RNG is excluded —
     * analytic_profile() only claims workloads whose trip draws are
     * constants, so the RNG never influences the stream.
     */
    bool append_state(std::vector<std::uint64_t> &out) const override;

    /** Static code footprint in bytes (blocks + loop latches). */
    std::uint64_t code_bytes() const { return code_bytes_; }

  private:
    /** Flattened block: its code and its pattern-pool entry. */
    struct FlatBlock
    {
        CodeBlock code;
        DataPattern *pattern = nullptr; ///< null for a compute block
    };

    /** Flattened node referencing the spec tree. */
    struct FlatNode
    {
        NodeSpec::Kind kind;
        std::size_t block_index = 0;     ///< into blocks_ (Block)
        std::uint64_t min_trips = 1;     ///< (Loop)
        std::uint64_t max_trips = 1;
        std::vector<FlatNode> body;      ///< (Loop)
        Pc latch_pc = 0;                 ///< loop latch block (Loop)
    };

    /** Interpreter stack frame: a loop in progress. */
    struct Frame
    {
        const FlatNode *loop;   ///< nullptr = the implicit top loop
        std::uint64_t trips_left;
        std::size_t pos;        ///< next child to execute
    };

    FlatNode flatten(const NodeSpec &spec, Pc &next_pc,
                     util::Rng &layout_rng);
    void start_run();
    /**
     * One interpreter step that emits nothing: leave a spent block,
     * enter the next node, or finish a loop body (arming its latch).
     */
    void advance();
    const std::vector<FlatNode> &body_of(const Frame &frame) const;

    /** All loops under @p node (inclusive) have min == max trips. */
    bool node_constant_trips(const FlatNode &node) const;

    /** Instructions one execution of @p node emits (constant trips). */
    std::uint64_t node_instrs(const FlatNode &node) const;

    std::string name_;
    Pc code_base_;
    std::vector<FlatBlock> blocks_;
    std::vector<FlatNode> top_;
    Pc top_latch_pc_ = 0;
    std::uint64_t code_bytes_ = 0;
    std::vector<DataPatternPtr> patterns_;
    std::uint64_t seed_;

    util::Rng run_rng_;
    std::vector<Frame> stack_;
    const FlatBlock *cur_block_ = nullptr;
    std::uint32_t instr_idx_ = 0;
    Pc latch_pc_ = 0;       ///< nonzero while emitting a latch
    std::uint32_t latch_idx_ = 0;
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP
