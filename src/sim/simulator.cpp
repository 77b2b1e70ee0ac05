/**
 * @file
 * The virtual simulators: simulate(), compare() and simulateMany() over
 * the runtime mbp::Predictor interface.
 *
 * They own no loop of their own: each wraps its predictors in
 * FusedKernel<Predictor>, whose calls stay virtual
 * (detail::boundPredict), and runs the one driver of
 * mbp/sim/kernels.hpp. So every simulator reads the same column blocks,
 * arena or streaming, and builds the same documents as its fused
 * counterpart.
 */
#include "mbp/sim/simulator.hpp"

#include <memory>
#include <vector>

#include "mbp/sim/detail/sim_core.hpp"
#include "mbp/sim/kernels.hpp"

namespace mbp
{

json_t
simulate(Predictor &predictor, const SimArgs &args)
{
    FusedKernel<Predictor> kernel(predictor);
    return detail::simulateKernel(kernel, args);
}

json_t
compare(Predictor &a, Predictor &b, const SimArgs &args)
{
    FusedKernel<Predictor> kernel_a(a);
    FusedKernel<Predictor> kernel_b(b);
    return compareFused(kernel_a, kernel_b, args);
}

json_t
simulateMany(const std::vector<Predictor *> &predictors,
             const SimArgs &args)
{
    // A null entry stays null, so the driver reports it.
    std::vector<std::unique_ptr<BlockKernel>> kernels;
    std::vector<BlockKernel *> pointers;
    for (Predictor *p : predictors) {
        if (p != nullptr)
            kernels.push_back(std::make_unique<FusedKernel<Predictor>>(*p));
        pointers.push_back(p != nullptr ? kernels.back().get() : nullptr);
    }
    return simulateManyFused(pointers, args);
}

} // namespace mbp
