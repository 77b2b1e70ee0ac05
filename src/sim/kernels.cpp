/**
 * @file
 * The N-predictor block driver behind compare(), simulateMany() and
 * their fused forms.
 *
 * Per block of up to kKernelBlockBranches branches, each kernel runs the
 * block through its predict/train/track (one virtual runBlock call per
 * block x predictor) and records its prediction bits; a shared
 * accounting pass then consumes the guess rows — misprediction totals,
 * per-site ranking rows through the dense site ids, and the prediction
 * hook, branch-major with the predictor index ascending. The hook
 * therefore fires after the block's train/track, with the same arguments
 * in the same order as a per-branch loop would pass them.
 */
#include "mbp/sim/kernels.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/detail/sim_core.hpp"

namespace mbp
{

namespace
{

/** Accumulated state of an N-predictor run. */
struct FusedManyState
{
    std::uint64_t dynamic_cond = 0;
    std::vector<std::uint64_t> mispredictions;
    // Lazy flat ranking rows, stride 1 + n, addressed through the dense
    // site ids (same layout detail::buildManyDoc consumes).
    std::vector<std::uint32_t> site_row; // value = row index + 1
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> row_ips;
};

/**
 * The accounting pass over one block's guess rows. kHook/kCollect
 * specialize the body like the single-predictor loop does; rows from
 * @p mid on are measured.
 */
template <bool kHook, bool kCollect>
void
accountBlock(const sbbt::BranchColumns &block, std::size_t mid,
             std::size_t n, const SimArgs &args,
             const std::vector<std::vector<std::uint8_t>> &guesses,
             FusedManyState &state)
{
    const std::uint64_t *ips = block.ip;
    const std::uint64_t *targets = block.target;
    const std::uint64_t *instr = block.instr;
    const std::uint8_t *meta = block.meta;
    const std::uint32_t *sites = block.site;
    const std::size_t stride = 1 + n;
    for (std::size_t i = 0; i < block.size; ++i) {
        const std::uint8_t m = meta[i];
        if ((m & 0x01) == 0)
            continue;
        const bool measured = i >= mid;
        if constexpr (kHook) {
            const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                           (m & 0x10) != 0};
            for (std::size_t k = 0; k < n; ++k)
                args.prediction_hook(b, guesses[k][i] != 0, instr[i],
                                     measured, k);
        }
        if (!measured)
            continue;
        ++state.dynamic_cond;
        const std::uint8_t taken = (m & 0x10) != 0 ? 1 : 0;
        if constexpr (kCollect) {
            std::uint32_t &slot = state.site_row[sites[i]];
            if (slot == 0) {
                state.row_ips.push_back(ips[i]);
                state.rows.resize(state.rows.size() + stride, 0);
                slot = static_cast<std::uint32_t>(state.row_ips.size());
            }
            std::uint64_t *row =
                state.rows.data() + std::size_t(slot - 1) * stride;
            ++row[0];
            for (std::size_t k = 0; k < n; ++k) {
                if (guesses[k][i] != taken) {
                    ++row[1 + k];
                    ++state.mispredictions[k];
                }
            }
        } else {
            for (std::size_t k = 0; k < n; ++k) {
                if (guesses[k][i] != taken)
                    ++state.mispredictions[k];
            }
        }
    }
}

json_t
runBlocks(const char *kName, const std::vector<BlockKernel *> &kernels,
          const SimArgs &args)
{
    if (kernels.empty())
        return detail::errorResult(kName, args,
                                   "no predictors to simulate");
    for (const BlockKernel *kernel : kernels) {
        if (kernel == nullptr)
            return detail::errorResult(kName, args, "null predictor");
    }
    detail::BlockSource source;
    std::string error;
    if (!source.open(args, error))
        return detail::errorResult(kName, args, error);

    const std::size_t n = kernels.size();
    detail::RunTotals run(args);
    FusedManyState state;
    state.mispredictions.assign(n, 0);
    const bool hook = static_cast<bool>(args.prediction_hook);
    const bool track_all = !args.track_only_conditional;

    std::vector<std::vector<std::uint8_t>> guesses(
        n, std::vector<std::uint8_t>(kKernelBlockBranches, 0));

    auto start_time = std::chrono::steady_clock::now();
    sbbt::BranchColumns block;
    while (!run.stopped && source.next(block, kKernelBlockBranches)) {
        const auto [mid, stop] = run.split(block);
        block.size = stop;
        for (std::size_t k = 0; k < n; ++k)
            kernels[k]->runBlock(block, track_all, guesses[k].data());
        if (args.collect_most_failed)
            state.site_row.resize(source.numSites(), 0);
        if (hook) {
            if (args.collect_most_failed)
                accountBlock<true, true>(block, mid, n, args, guesses,
                                         state);
            else
                accountBlock<true, false>(block, mid, n, args, guesses,
                                          state);
        } else {
            if (args.collect_most_failed)
                accountBlock<false, true>(block, mid, n, args, guesses,
                                          state);
            else
                accountBlock<false, false>(block, mid, n, args, guesses,
                                           state);
        }
    }
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    if (!source.error().empty())
        return detail::errorResult(kName, args, source.error());

    return detail::buildManyDoc(
        kName, kernels, args, run.simulationInstr(args, source.header()),
        run.exhausted(), run.static_branches, state.dynamic_cond,
        run.dynamic_branches, state.mispredictions, state.rows,
        state.row_ips, source.throughput(seconds));
}

} // namespace

json_t
simulateManyFused(const std::vector<BlockKernel *> &kernels,
                  const SimArgs &args)
{
    return runBlocks(detail::kMultiSimulatorName, kernels, args);
}

json_t
compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args)
{
    return runBlocks(detail::kCompareSimulatorName, {&a, &b}, args);
}

} // namespace mbp
