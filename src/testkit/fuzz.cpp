/**
 * @file
 * Fuzzing campaign driver.
 */
#include "mbp/testkit/fuzz.hpp"

#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>

#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/testkit/reference.hpp"
#include "mbp/testkit/shrink.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/lfsr.hpp"

namespace mbp::testkit
{

namespace
{

/** Elementary stream shapes the fuzzer composes (must stay dense: the
 *  stream chooser draws `% kNumSimpleShapes`). */
constexpr std::uint64_t kNumSimpleShapes = 9;

Events
makeSimpleStream(std::uint64_t shape, Lfsr &rng, std::size_t num_branches,
                 std::size_t max_branches)
{
    switch (shape % kNumSimpleShapes) {
    case 0: {
        constexpr int kTableBits[] = {12, 16, 17};
        return tracegen::aliasingStorm(rng.next(), num_branches,
                                       kTableBits[rng.next() % 3]);
    }
    case 1: {
        // 15/16 match the roster gshare and TageLite histories; 63 probes
        // the machine-word wrap of bitset::to_ullong-style histories.
        constexpr int kHistoryBits[] = {15, 16, 63};
        return tracegen::historyWrap(rng.next(), num_branches,
                                     kHistoryBits[rng.next() % 3]);
    }
    case 2: {
        constexpr int kDepths[] = {4, 16, 64};
        return tracegen::rasOverflow(rng.next(), num_branches,
                                     kDepths[rng.next() % 3]);
    }
    case 3:
        return tracegen::degenerateRun(num_branches, (rng.next() & 1) != 0);
    case 4: {
        constexpr std::size_t kPhases[] = {64, 256, 1024};
        return tracegen::phaseFlips(rng.next(), num_branches,
                                    kPhases[rng.next() % 3]);
    }
    case 5: {
        // Target counts straddle the small-config indirect capacity.
        constexpr int kTargets[] = {2, 7, 31};
        return tracegen::indirectStorm(rng.next(), num_branches,
                                       1 + int(rng.next() % 4),
                                       kTargets[rng.next() % 3]);
    }
    case 6: {
        constexpr int kTargets[] = {4, 16, 40};
        return tracegen::megamorphicSites(rng.next(), num_branches,
                                          kTargets[rng.next() % 3]);
    }
    case 7: {
        // Depths straddle both RAS configurations (16 default, 4 small).
        constexpr int kDepths[] = {3, 17, 70};
        return tracegen::deepRecursion(rng.next(), num_branches,
                                       kDepths[rng.next() % 3]);
    }
    default: {
        // A realistic structured program as contrast to the hostile
        // shapes. num_instr bounds instructions, not branches; cap after.
        tracegen::WorkloadSpec spec;
        spec.seed = rng.next();
        spec.num_instr = num_branches * 6;
        spec.num_functions = 4 + int(rng.next() % 8);
        spec.noise_fraction = 0.05 + 0.001 * double(rng.next() % 200);
        Events events = tracegen::generateAll(spec);
        if (events.size() > max_branches)
            events.resize(max_branches);
        return events;
    }
    }
}

/** A lane's name and its keys in the report. */
struct LaneKeys
{
    const char *name;
    const char *targets;
    const char *differential_checks;
    const char *metamorphic_checks;
};

/** Indexed by Lane, in report order. */
constexpr LaneKeys kLanes[] = {
    {"conditional", "targets", "differential_checks", "metamorphic_checks"},
    {"frontend", "frontend_targets", "frontend_differential_checks",
     "frontend_metamorphic_checks"},
};
constexpr std::size_t kNumLanes = std::size(kLanes);

/** One metamorphic check run on every stream. */
struct MetamorphicCheck
{
    Lane lane;
    const char *invariant;
    /** Roster name of the predictor under check; empty for none. */
    std::string predictor;
    /** "" or the violation, given a stream and its scratch path prefix. */
    std::function<std::string(const Events &, const std::string &)> run;
};

/**
 * The checks every stream goes through, in report order. Predictors are
 * resolved up front so a typo is one clear config failure in @p failures
 * instead of one per stream.
 */
std::vector<MetamorphicCheck>
metamorphicChecks(const FuzzOptions &options, json_t &failures)
{
    std::vector<MetamorphicCheck> checks;
    if (!options.metamorphic)
        return checks;
    checks.push_back({Lane::kConditional, "round-trip", "",
                      [](const Events &events, const std::string &scratch) {
                          return checkRoundTrip(events, scratch);
                      }});
    auto known = [&](const std::string &name, const char *what) {
        if (pred::makeByName(name) != nullptr)
            return true;
        failures.push_back(json_t::object(
            {{"type", "config"},
             {"detail", std::string("unknown ") + what + " predictor \"" +
                            name + "\" (see mbp::pred::rosterNames)"}}));
        return false;
    };
    for (const std::string &name : options.metamorphic_predictors) {
        if (!known(name, "metamorphic"))
            continue;
        PredictorFactory factory = [name] { return pred::makeByName(name); };
        SimRunner runner = [factory](const SimArgs &args) {
            return simulate(*factory(), args);
        };
        checks.push_back(
            {Lane::kConditional, "warmup-split", name,
             [factory](const Events &events, const std::string &scratch) {
                 return checkWarmupSplit(factory, events, scratch + ".sbbt");
             }});
        checks.push_back(
            {Lane::kConditional, "determinism", name,
             [runner](const Events &events, const std::string &scratch) {
                 return checkDeterminism(runner, events, scratch + ".sbbt");
             }});
    }
    for (const std::string &name : options.frontend_predictors) {
        if (!known(name, "frontend"))
            continue;
        SimRunner runner = [name](const SimArgs &args) {
            frontend::FrontEnd front_end(pred::makeByName(name),
                                         frontend::FrontEndConfig{});
            return frontend::simulate(front_end, args);
        };
        checks.push_back(
            {Lane::kFrontend, "frontend-warmup-split", name,
             [runner](const Events &events, const std::string &scratch) {
                 return checkFrontendWarmupSplit(runner, events,
                                                 scratch + ".sbbt");
             }});
        checks.push_back(
            {Lane::kFrontend, "frontend-determinism", name,
             [runner](const Events &events, const std::string &scratch) {
                 return checkDeterminism(runner, events, scratch + ".sbbt",
                                         "frontend-determinism");
             }});
    }
    return checks;
}

} // namespace

const char *
laneName(Lane lane)
{
    return kLanes[std::size_t(lane)].name;
}

std::vector<DiffTarget>
defaultDiffTargets()
{
    return {
        lockstepTarget(
            "bimodal-vs-ref", Lane::kConditional, "mbp_sim bimodal",
            [] { return std::make_unique<pred::Bimodal<16>>(); },
            [] { return std::make_unique<RefBimodal>(16, 2); }),
        lockstepTarget(
            "gshare-vs-ref", Lane::kConditional, "mbp_sim gshare",
            [] { return std::make_unique<pred::Gshare<15, 17>>(); },
            [] { return std::make_unique<RefGshare>(15, 17); }),
        lockstepTarget(
            "tage-lite-vs-ref", Lane::kConditional, "",
            [] { return std::make_unique<TageLite>(); },
            [] { return std::make_unique<RefTageLite>(); }),
    };
}

DiffTarget
brokenGshareTarget()
{
    return lockstepTarget(
        "broken-gshare-vs-ref", Lane::kConditional, "",
        [] { return std::make_unique<BrokenGshare>(); },
        [] { return std::make_unique<RefGshare>(15, 17); });
}

std::vector<DiffTarget>
fuzzTargets(const FuzzOptions &options)
{
    std::vector<DiffTarget> targets = defaultDiffTargets();
    for (DiffTarget &target :
         frontendDiffTargets(options.frontend_predictors))
        targets.push_back(std::move(target));
    return targets;
}

Events
makeStream(std::uint64_t seed, std::size_t index, std::size_t max_branches)
{
    Lfsr rng(mix64(seed) ^ mix64(0x9e3779b97f4a7c15ull * (index + 1)));
    if (max_branches < 64)
        max_branches = 64;
    const std::size_t num_branches =
        64 + rng.next() % (max_branches - 63);
    const std::uint64_t shape = rng.next() % (kNumSimpleShapes + 2);
    if (shape < kNumSimpleShapes)
        return makeSimpleStream(shape, rng, num_branches, max_branches);
    if (shape == kNumSimpleShapes) {
        Events a = makeSimpleStream(rng.next(), rng, num_branches / 2,
                                    max_branches);
        Events b = makeSimpleStream(rng.next(), rng,
                                    num_branches - num_branches / 2,
                                    max_branches);
        return tracegen::concat(std::move(a), b);
    }
    Events a =
        makeSimpleStream(rng.next(), rng, num_branches / 2, max_branches);
    Events b = makeSimpleStream(rng.next(), rng,
                                num_branches - num_branches / 2,
                                max_branches);
    return tracegen::interleave(a, b, rng.next());
}

json_t
runFuzz(const FuzzOptions &options, const std::vector<DiffTarget> &targets)
{
    json_t report = json_t::object();
    json_t meta = json_t::object({
        {"tool", "MBPlib mbp_fuzz"},
        {"version", kMbpVersion},
        {"seed", options.seed},
        {"num_streams", std::uint64_t(options.num_streams)},
        {"max_branches", std::uint64_t(options.max_branches)},
        {"differential", options.differential},
        {"metamorphic", options.metamorphic},
    });
    for (std::size_t lane = 0; lane < kNumLanes; ++lane) {
        json_t names = json_t::array();
        for (const DiffTarget &t : targets)
            if (std::size_t(t.lane) == lane)
                names.push_back(t.name);
        meta[kLanes[lane].targets] = std::move(names);
    }
    report["metadata"] = std::move(meta);

    const std::string scratch_dir = options.artifact_dir + "/scratch";
    std::filesystem::create_directories(scratch_dir);

    json_t failures = json_t::array();
    std::uint64_t differential_checks[kNumLanes] = {};
    std::uint64_t metamorphic_checks[kNumLanes] = {};
    const std::vector<MetamorphicCheck> checks =
        metamorphicChecks(options, failures);

    for (std::size_t i = 0; i < options.num_streams; ++i) {
        const Events events =
            makeStream(options.seed, i, options.max_branches);

        if (options.differential) {
            for (const DiffTarget &target : targets) {
                ++differential_checks[std::size_t(target.lane)];
                if (!target.run(events).found)
                    continue;
                Events minimal = shrinkStream(events, [&](const Events &c) {
                    return target.run(c).found;
                });
                const Mismatch shrunk = target.run(minimal);
                const std::string name = target.name + "-seed" +
                                         std::to_string(options.seed) +
                                         "-stream" + std::to_string(i);
                ReproArtifact artifact = writeRepro(
                    options.artifact_dir, name, minimal,
                    target.name + ": " + shrunk.describe(), target.replay);
                failures.push_back(json_t::object({
                    {"type", "differential"},
                    {"lane", laneName(target.lane)},
                    {"target", target.name},
                    {"stream", std::uint64_t(i)},
                    {"detail", shrunk.describe()},
                    {"original_branches", std::uint64_t(events.size())},
                    {"shrunk_branches", std::uint64_t(minimal.size())},
                    {"sbbt", artifact.sbbt_path},
                    {"stanza", artifact.stanza_path},
                }));
            }
        }

        const std::string scratch =
            scratch_dir + "/stream" + std::to_string(i);
        for (const MetamorphicCheck &check : checks) {
            ++metamorphic_checks[std::size_t(check.lane)];
            const std::string err = check.run(events, scratch);
            if (err.empty())
                continue;
            json_t failure = json_t::object(
                {{"type", "metamorphic"}, {"invariant", check.invariant}});
            if (!check.predictor.empty())
                failure["predictor"] = check.predictor;
            failure["stream"] = std::uint64_t(i);
            failure["detail"] = err;
            failures.push_back(std::move(failure));
        }
    }

    json_t counts =
        json_t::object({{"streams", std::uint64_t(options.num_streams)}});
    for (std::size_t lane = 0; lane < kNumLanes; ++lane) {
        counts[kLanes[lane].differential_checks] = differential_checks[lane];
        counts[kLanes[lane].metamorphic_checks] = metamorphic_checks[lane];
    }
    counts["failures"] = std::uint64_t(failures.size());
    report["counts"] = std::move(counts);
    report["ok"] = failures.size() == 0;
    report["failures"] = std::move(failures);
    return report;
}

} // namespace mbp::testkit
