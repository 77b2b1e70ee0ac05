/**
 * @file
 * Compile-time contracts for the simulator's template surface.
 *
 * The kernels (mbp/sim/kernels.hpp) and the sweep's predictor factories
 * are templates over the predictor type, so that concrete predictors
 * and the virtual Predictor base share one implementation. Duck typing
 * made interface drift fail with pages of template errors deep inside
 * the instantiation; these concepts turn a wrong predictor shape into a
 * one-line diagnostic at the call site, and the conformance
 * static_asserts (tests/contracts_test.cpp) pin every roster predictor
 * to the contracts.
 */
#ifndef MBP_SIM_CONCEPTS_HPP
#define MBP_SIM_CONCEPTS_HPP

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/branch.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp
{

/**
 * The behavioural surface of a branch predictor, independent of the
 * Predictor base class: predict/train/track plus the reporting trio.
 * Satisfied by every roster predictor through its virtual overrides, but
 * deliberately duck-typed so that the kernels can accept concrete
 * predictor types with no vtable at all.
 */
template <typename P>
concept PredictorLike = requires(P predictor, const P const_predictor,
                                 const Branch &branch, std::uint64_t ip) {
    { predictor.predict(ip) } -> std::same_as<bool>;
    { predictor.train(branch) } -> std::same_as<void>;
    { predictor.track(branch) } -> std::same_as<void>;
    { const_predictor.metadata_stats() } -> std::same_as<json_t>;
    { const_predictor.execution_stats() } -> std::same_as<json_t>;
    {
        const_predictor.storage_components()
    } -> std::same_as<std::optional<ComponentInfo>>;
};

/**
 * A roster predictor: PredictorLike *and* usable through the runtime
 * Predictor interface the simulators take. Concrete (instantiable), so
 * sweep factories constrained on it cannot name an abstract base.
 */
template <typename P>
concept RosterPredictor = PredictorLike<P> &&
                          std::derived_from<P, Predictor> &&
                          !std::is_abstract_v<P>;

/**
 * A sweep predictor factory: a callable producing fresh heap-allocated
 * predictors, one per campaign cell.
 */
template <typename F>
concept PredictorFactory = requires(F factory) {
    { factory() } -> std::convertible_to<std::unique_ptr<Predictor>>;
};

} // namespace mbp

#endif // MBP_SIM_CONCEPTS_HPP
