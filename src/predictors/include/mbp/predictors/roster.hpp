/**
 * @file
 * A by-name registry of the examples library's predictors with sensible
 * (~64 kB class) default configurations. Lets tools, benchmarks and user
 * scripts name a predictor on the command line; programmatic users should
 * instantiate the templates directly for full parameter control.
 *
 * Every roster entry is registered twice: as a virtual mbp::Predictor
 * factory (makeByName) and as its fused compile-time instantiation
 * (fusedKernelByName, see mbp/sim/kernels.hpp), so tools pick the
 * devirtualized kernels automatically by the same name.
 */
#ifndef MBP_PREDICTORS_ROSTER_HPP
#define MBP_PREDICTORS_ROSTER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp::pred
{

/**
 * A complete fused simulate() run over a fresh instance of some roster
 * predictor: behaves exactly like mbp::simulate(*makeByName(name), args)
 * but through the compile-time kernel: a fresh fusedKernelByName(name).
 */
using FusedRunner = std::function<json_t(const SimArgs &)>;

/**
 * Creates a predictor by name.
 *
 * Known names: bimodal, two-level, gshare, agree, bimode, yags,
 * tournament, gskew, perceptron, loop-gshare, filter-tage, tage, batage,
 * tage-scl, static-taken, static-not-taken.
 *
 * @return The predictor, or nullptr for an unknown name.
 */
std::unique_ptr<Predictor> makeByName(const std::string &name);

/**
 * @return The fused-kernel runner of the named roster entry (same
 *         configuration makeByName builds), or an empty function for an
 *         unknown name.
 */
FusedRunner fusedRunnerByName(const std::string &name);

/**
 * Creates a fused block kernel (mbp::BlockKernel) owning a fresh
 * instance of the named roster entry, for compareFused() /
 * simulateManyFused() rosters.
 *
 * @return The kernel, or nullptr for an unknown name.
 */
std::unique_ptr<BlockKernel> fusedKernelByName(const std::string &name);

/** @return Every name makeByName accepts, in roster order. */
std::vector<std::string> rosterNames();

} // namespace mbp::pred

#endif // MBP_PREDICTORS_ROSTER_HPP
