/**
 * @file
 * Predictor registry implementation.
 *
 * Each entry is described once, by a factory lambda returning the
 * concrete type; entryOf() derives the virtual factory and the fused
 * kernel factory from it, so a configuration can never differ between
 * the virtual and fused paths.
 */
#include "mbp/predictors/roster.hpp"

#include <utility>

#include "mbp/predictors/all.hpp"
#include "mbp/sim/kernels.hpp"

namespace mbp::pred
{

namespace
{

struct Entry
{
    const char *name;
    std::function<std::unique_ptr<Predictor>()> make;
    std::function<std::unique_ptr<BlockKernel>()> fused_kernel;
};

template <typename MakeFn>
Entry
entryOf(const char *name, MakeFn make_fn)
{
    using P = typename decltype(make_fn())::element_type;
    return Entry{
        name,
        make_fn,
        [make_fn]() -> std::unique_ptr<BlockKernel> {
            return std::make_unique<FusedKernel<P>>(make_fn());
        },
    };
}

const std::vector<Entry> &
registry()
{
    static const std::vector<Entry> entries = {
        entryOf("static-taken",
                [] { return std::make_unique<AlwaysTaken>(); }),
        entryOf("static-not-taken",
                [] { return std::make_unique<AlwaysNotTaken>(); }),
        entryOf("bimodal", [] { return std::make_unique<Bimodal<16>>(); }),
        entryOf("two-level",
                [] { return std::make_unique<GAs<13, 4>>(); }),
        entryOf("gshare",
                [] { return std::make_unique<Gshare<15, 17>>(); }),
        entryOf("agree", [] { return std::make_unique<Agree<15, 16>>(); }),
        entryOf("bimode",
                [] { return std::make_unique<BiMode<15, 15>>(); }),
        entryOf("yags", [] { return std::make_unique<Yags<13, 13>>(); }),
        entryOf("tournament",
                [] {
                    return std::make_unique<TournamentPred>(
                        std::make_unique<Bimodal<15>>(),
                        std::make_unique<Bimodal<16>>(),
                        std::make_unique<Gshare<15, 16>>());
                }),
        entryOf("gskew",
                [] { return std::make_unique<Gskew2bc<17, 16>>(); }),
        entryOf("perceptron",
                [] {
                    return std::make_unique<HashedPerceptron<8, 12, 128>>();
                }),
        entryOf("loop-gshare",
                [] {
                    return std::make_unique<LoopOverride>(
                        std::make_unique<Gshare<15, 17>>());
                }),
        entryOf("filter-tage",
                [] {
                    return std::make_unique<BiasFilter<14, 64, true>>(
                        std::make_unique<Tage>());
                }),
        entryOf("tage", [] { return std::make_unique<Tage>(); }),
        entryOf("batage", [] { return std::make_unique<Batage>(); }),
        entryOf("tage-scl", [] { return std::make_unique<TageScl>(); }),
    };
    return entries;
}

const Entry *
findEntry(const std::string &name)
{
    for (const Entry &entry : registry()) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

} // namespace

std::unique_ptr<Predictor>
makeByName(const std::string &name)
{
    const Entry *entry = findEntry(name);
    return entry != nullptr ? entry->make() : nullptr;
}

FusedRunner
fusedRunnerByName(const std::string &name)
{
    const Entry *entry = findEntry(name);
    if (entry == nullptr)
        return {};
    return [entry](const SimArgs &args) {
        return mbp::detail::simulateKernel(*entry->fused_kernel(), args);
    };
}

std::unique_ptr<BlockKernel>
fusedKernelByName(const std::string &name)
{
    const Entry *entry = findEntry(name);
    return entry != nullptr ? entry->fused_kernel() : nullptr;
}

std::vector<std::string>
rosterNames()
{
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const Entry &entry : registry())
        names.push_back(entry.name);
    return names;
}

} // namespace mbp::pred
