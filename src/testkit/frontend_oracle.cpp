/**
 * @file
 * Front-end differential and metamorphic oracle implementations.
 */
#include "mbp/testkit/frontend_oracle.hpp"

#include <limits>
#include <sstream>

#include "mbp/predictors/roster.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/adversarial.hpp"

namespace mbp::testkit
{

namespace
{

/** The deliberately tiny configuration of the "-small-" targets. */
frontend::FrontEndConfig
smallConfig()
{
    frontend::FrontEndConfig config;
    config.btb.log2_sets = 4;
    config.btb.ways = 2;
    config.btb.log2_banks = 0;
    config.btb.tag_bits = 6;
    config.btb.replacement = frontend::Replacement::kFifo;
    config.ras.size = 4;
    config.ras.overflow = frontend::RasOverflow::kDiscard;
    config.ras.underflow = frontend::RasUnderflow::kReuse;
    config.indirect.index_bits = 6;
    config.indirect.tag_bits = 5;
    config.indirect.history_bits = 8;
    config.corrupt_on_mispredict = true;
    return config;
}

DiffTarget
makeTarget(const std::string &label, const std::string &conditional,
           const frontend::FrontEndConfig &config,
           FrontendMutation mutation = FrontendMutation::kNone)
{
    return lockstepTarget(
        label, Lane::kFrontend,
        [conditional, config] {
            return std::make_unique<frontend::FrontEnd>(
                pred::makeByName(conditional), config);
        },
        [conditional, config, mutation] {
            return std::make_unique<RefFrontEnd>(
                pred::makeByName(conditional), config, mutation);
        });
}

/** One run of @p runner over @p path; "" or the error. */
std::string
runFrontendSim(const SimRunner &runner, const std::string &path,
               std::uint64_t warmup, std::uint64_t sim_instr, json_t &out)
{
    SimArgs args;
    args.trace_path = path;
    args.warmup_instr = warmup;
    args.sim_instr = sim_instr;
    out = runner(args);
    if (out.contains("error"))
        return out.find("error")->asString();
    return "";
}

} // namespace

Mismatch
runLockstep(frontend::FrontEnd &subject, RefFrontEnd &reference,
            const Events &events)
{
    Mismatch mismatch;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Branch &b = events[i].branch;
        const frontend::StepResult s = subject.step(b, true);
        const RefFrontEnd::Prediction r = reference.step(b);
        if (s.taken_predicted != r.taken ||
            s.target_predicted != r.target) {
            mismatch.found = true;
            mismatch.event_index = i;
            mismatch.ip = b.ip();
            mismatch.field =
                s.taken_predicted != r.taken ? "direction" : "target";
            mismatch.subject_taken = s.taken_predicted;
            mismatch.reference_taken = r.taken;
            mismatch.subject_target = s.target_predicted;
            mismatch.reference_target = r.target;
            return mismatch;
        }
    }
    return mismatch;
}

std::vector<DiffTarget>
frontendDiffTargets(const std::vector<std::string> &conditional_names)
{
    std::vector<DiffTarget> targets;
    for (const std::string &name : conditional_names) {
        if (pred::makeByName(name) == nullptr)
            continue;
        targets.push_back(makeTarget("frontend-" + name +
                                         "-default-vs-ref",
                                     name, frontend::FrontEndConfig{}));
        targets.push_back(makeTarget("frontend-" + name + "-small-vs-ref",
                                     name, smallConfig()));
    }
    return targets;
}

DiffTarget
brokenFrontendTarget()
{
    return makeTarget("frontend-broken-btb-vs-ref", "gshare",
                      frontend::FrontEndConfig{},
                      FrontendMutation::kBtbStaleTarget);
}

std::string
checkFrontendWarmupSplit(const SimRunner &runner,
                         const Events &events,
                         const std::string &scratch_path)
{
    std::string err = writeSbbtFile(events, scratch_path);
    if (!err.empty())
        return "frontend-warmup-split: " + err;
    constexpr std::uint64_t kUnlimited =
        std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t k = tracegen::streamInstructions(events) / 2;

    json_t full, prefix, tail;
    err = runFrontendSim(runner, scratch_path, 0, kUnlimited, full);
    if (!err.empty())
        return "frontend-warmup-split: full run failed: " + err;
    err = runFrontendSim(runner, scratch_path, 0, k, prefix);
    if (!err.empty())
        return "frontend-warmup-split: prefix run failed: " + err;
    err = runFrontendSim(runner, scratch_path, k, kUnlimited, tail);
    if (!err.empty())
        return "frontend-warmup-split: tail run failed: " + err;

    // Every measured branch lands in exactly one of the prefix window
    // (instr <= k) and the tail window (instr > k), and warm-up runs the
    // same updates as measurement — so each per-class counter must be
    // exactly additive across the split.
    const json_t &full_classes =
        *full.find("frontend")->find("classes");
    const json_t &prefix_classes =
        *prefix.find("frontend")->find("classes");
    const json_t &tail_classes = *tail.find("frontend")->find("classes");
    for (const auto &[cls, counters] : full_classes.members()) {
        for (const auto &[key, value] : counters.members()) {
            const std::uint64_t f = value.asUint();
            const std::uint64_t p =
                prefix_classes.find(cls)->find(key)->asUint();
            const std::uint64_t t =
                tail_classes.find(cls)->find(key)->asUint();
            if (f != p + t) {
                std::ostringstream os;
                os << "frontend-warmup-split: class " << cls << " "
                   << key << " not additive at split " << k
                   << ": full run reports " << f << ", prefix " << p
                   << " + tail " << t;
                return os.str();
            }
        }
    }
    for (const char *key :
         {"total_branches", "total_taken", "direction_mispredictions",
          "target_mispredictions"}) {
        const std::uint64_t f =
            full.find("frontend")->find("rollups")->find(key)->asUint();
        const std::uint64_t p =
            prefix.find("frontend")->find("rollups")->find(key)->asUint();
        const std::uint64_t t =
            tail.find("frontend")->find("rollups")->find(key)->asUint();
        if (f != p + t) {
            std::ostringstream os;
            os << "frontend-warmup-split: rollup " << key
               << " not additive at split " << k << ": full run reports "
               << f << ", prefix " << p << " + tail " << t;
            return os.str();
        }
    }
    return "";
}

} // namespace mbp::testkit
