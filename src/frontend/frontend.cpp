/**
 * @file
 * FrontEnd composition, spec parsing and the frontend simulators.
 *
 * The simulate()/simulateMany()/simulateEach() entry points run on the
 * library's one block driver (detail::runJoined/runEach in
 * mbp/sim/kernels.hpp): each FrontEnd steps through the same column
 * blocks as the conditional simulators in a FrontEndKernel, and the
 * frontend document is built from the driver's finished-run record with
 * the same accounting helpers (instruction windows, metadata/throughput
 * layout), so the frontend documents cannot drift from the conditional
 * simulators' conventions.
 */
#include "mbp/frontend/frontend.hpp"

#include <charconv>
#include <memory>
#include <utility>

#include "mbp/sim/detail/sim_core.hpp"

namespace mbp::frontend
{

const char *
className(BranchClass cls)
{
    switch (cls) {
    case BranchClass::kConditional:
        return "conditional";
    case BranchClass::kJumpDirect:
        return "jump_direct";
    case BranchClass::kJumpIndirect:
        return "jump_indirect";
    case BranchClass::kCallDirect:
        return "call_direct";
    case BranchClass::kCallIndirect:
        return "call_indirect";
    case BranchClass::kReturn:
        return "return";
    }
    return "unknown";
}

std::string
FrontEndConfig::validate() const
{
    std::string err = btb.validate();
    if (err.empty())
        err = ras.validate();
    if (err.empty())
        err = indirect.validate();
    return err;
}

namespace
{

/** Strict base-10 unsigned parse of a whole spec value. */
bool
parseSpecUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, out, 10);
    return ec == std::errc() && ptr == last;
}

/** @return log2(@p value) when it is a power of two in range, else -1. */
int
log2OfPow2(std::uint64_t value, int max_log2)
{
    for (int l = 0; l <= max_log2; ++l) {
        if (value == (std::uint64_t(1) << l))
            return l;
    }
    return -1;
}

} // namespace

bool
parseFrontEndSpec(const std::string &spec, FrontEndConfig &out,
                  std::string &error)
{
    FrontEndConfig config;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "frontend spec item '" + item +
                    "' is not of the form key=value";
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        std::uint64_t n = 0;
        const bool is_uint = parseSpecUint(value, n);
        if (key == "btb-sets") {
            int l = is_uint ? log2OfPow2(n, 20) : -1;
            if (l < 1) {
                error = "btb-sets must be a power of two in 2..2^20";
                return false;
            }
            config.btb.log2_sets = l;
        } else if (key == "btb-ways") {
            if (!is_uint || n < 1 || n > 16) {
                error = "btb-ways must be 1..16";
                return false;
            }
            config.btb.ways = static_cast<int>(n);
        } else if (key == "btb-banks") {
            int l = is_uint ? log2OfPow2(n, 4) : -1;
            if (l < 0) {
                error = "btb-banks must be a power of two in 1..16";
                return false;
            }
            config.btb.log2_banks = l;
        } else if (key == "btb-tag") {
            if (!is_uint || n < 1 || n > 32) {
                error = "btb-tag must be 1..32";
                return false;
            }
            config.btb.tag_bits = static_cast<int>(n);
        } else if (key == "btb-repl") {
            if (value == "lru")
                config.btb.replacement = Replacement::kLru;
            else if (value == "fifo")
                config.btb.replacement = Replacement::kFifo;
            else {
                error = "btb-repl must be lru or fifo";
                return false;
            }
        } else if (key == "ras") {
            if (!is_uint || n < 1 || n > 4096) {
                error = "ras must be 1..4096";
                return false;
            }
            config.ras.size = static_cast<int>(n);
        } else if (key == "ras-overflow") {
            if (value == "wrap")
                config.ras.overflow = RasOverflow::kWrap;
            else if (value == "discard")
                config.ras.overflow = RasOverflow::kDiscard;
            else {
                error = "ras-overflow must be wrap or discard";
                return false;
            }
        } else if (key == "ras-underflow") {
            if (value == "zero")
                config.ras.underflow = RasUnderflow::kZero;
            else if (value == "reuse")
                config.ras.underflow = RasUnderflow::kReuse;
            else {
                error = "ras-underflow must be zero or reuse";
                return false;
            }
        } else if (key == "ind-bits") {
            if (!is_uint || n < 1 || n > 20) {
                error = "ind-bits must be 1..20";
                return false;
            }
            config.indirect.index_bits = static_cast<int>(n);
        } else if (key == "ind-tag") {
            if (!is_uint || n < 1 || n > 32) {
                error = "ind-tag must be 1..32";
                return false;
            }
            config.indirect.tag_bits = static_cast<int>(n);
        } else if (key == "ind-hist") {
            if (!is_uint || n > 63) {
                error = "ind-hist must be 0..63";
                return false;
            }
            config.indirect.history_bits = static_cast<int>(n);
        } else if (key == "corrupt") {
            if (value == "on" || value == "1")
                config.corrupt_on_mispredict = true;
            else if (value == "off" || value == "0")
                config.corrupt_on_mispredict = false;
            else {
                error = "corrupt must be on or off";
                return false;
            }
        } else {
            error = "unknown frontend spec key '" + key + "'";
            return false;
        }
    }
    std::string err = config.validate();
    if (!err.empty()) {
        error = err;
        return false;
    }
    out = config;
    return true;
}

FrontEnd::FrontEnd(std::unique_ptr<Predictor> conditional,
                   const FrontEndConfig &config)
    : conditional_(std::move(conditional)), config_(config),
      btb_(config.btb), ras_(config.ras), indirect_(config.indirect)
{
}

StepResult
FrontEnd::step(const Branch &branch, bool measured, bool track_all)
{
    const std::uint64_t ip = branch.ip();
    StepResult result;
    result.cls = classify(branch.opcode());

    // 1. Direction.
    result.taken_predicted =
        branch.isConditional() ? conditional_->predict(ip) : true;

    // 2. Target. Returns consult the RAS only; other indirect branches
    // try the path-indexed table first and fall back to the BTB; direct
    // branches use the BTB. A miss predicts 0 — no target, a misfetch on
    // any taken execution.
    if (branch.isRet()) {
        result.target_predicted = ras_.peek();
    } else if (branch.isIndirect()) {
        if (!indirect_.lookup(ip, result.target_predicted))
            if (!btb_.lookup(ip, result.target_predicted))
                result.target_predicted = 0;
    } else {
        if (!btb_.lookup(ip, result.target_predicted))
            result.target_predicted = 0;
    }

    // 3. Accounting (measured window only).
    const bool direction_wrong =
        branch.isConditional() &&
        result.taken_predicted != branch.isTaken();
    if (measured) {
        ClassCounts &c = counts_[static_cast<std::size_t>(result.cls)];
        ++c.count;
        if (branch.isTaken()) {
            ++c.taken;
            if (result.target_predicted != branch.target())
                ++c.target_mispredictions;
        }
        if (direction_wrong)
            ++c.direction_mispredictions;
    }

    // 4. Updates (every execution, warm-up included).
    if (branch.isConditional())
        conditional_->train(branch);
    if (track_all || branch.isConditional())
        conditional_->track(branch);
    if (branch.isTaken()) {
        if (branch.isRet()) {
            ras_.pop();
        } else {
            if (branch.isCall())
                ras_.push(ip + 4);
            btb_.update(ip, branch.target());
            if (branch.isIndirect())
                indirect_.update(ip, branch.target());
        }
    }
    if (config_.corrupt_on_mispredict && direction_wrong)
        ras_.corrupt(ip + 4);
    indirect_.trackOutcome(branch.isTaken());
    return result;
}

std::uint64_t
FrontEnd::totalCounted() const
{
    std::uint64_t total = 0;
    for (const ClassCounts &c : counts_)
        total += c.count;
    return total;
}

json_t
FrontEnd::metadata_stats() const
{
    json_t md = json_t::object({{"name", "frontend"}});
    md["conditional"] = conditional_->metadata_stats();
    md["btb"] = json_t::object({
        {"sets", std::uint64_t(1) << config_.btb.log2_sets},
        {"ways", std::uint64_t(config_.btb.ways)},
        {"banks", std::uint64_t(1) << config_.btb.log2_banks},
        {"tag_bits", std::uint64_t(config_.btb.tag_bits)},
        {"replacement",
         config_.btb.replacement == Replacement::kLru ? "lru" : "fifo"},
    });
    md["ras"] = json_t::object({
        {"size", std::uint64_t(config_.ras.size)},
        {"overflow",
         config_.ras.overflow == RasOverflow::kWrap ? "wrap" : "discard"},
        {"underflow", config_.ras.underflow == RasUnderflow::kZero
                          ? "zero"
                          : "reuse"},
    });
    md["indirect"] = json_t::object({
        {"index_bits", std::uint64_t(config_.indirect.index_bits)},
        {"tag_bits", std::uint64_t(config_.indirect.tag_bits)},
        {"history_bits", std::uint64_t(config_.indirect.history_bits)},
    });
    md["corrupt_on_mispredict"] = config_.corrupt_on_mispredict;
    return md;
}

json_t
FrontEnd::structuresJson() const
{
    return json_t::object({
        {"btb", btb_.statsJson()},
        {"ras", ras_.statsJson()},
        {"indirect", indirect_.statsJson()},
    });
}

json_t
FrontEnd::reportJson(std::uint64_t simulation_instr) const
{
    json_t classes = json_t::object();
    std::uint64_t total = 0, total_taken = 0;
    std::uint64_t dir_miss = 0, tgt_miss = 0;
    for (std::size_t i = 0; i < kNumBranchClasses; ++i) {
        const ClassCounts &c = counts_[i];
        const BranchClass cls = static_cast<BranchClass>(i);
        json_t entry = json_t::object({
            {"count", c.count},
            {"taken", c.taken},
            {"target_mispredictions", c.target_mispredictions},
        });
        // Direction is only ever predicted for conditional opcodes; the
        // purely unconditional classes omit the counter rather than
        // reporting a misleading hard zero.
        if (cls == BranchClass::kConditional ||
            cls == BranchClass::kJumpIndirect ||
            cls == BranchClass::kCallDirect ||
            cls == BranchClass::kCallIndirect)
            entry["direction_mispredictions"] = c.direction_mispredictions;
        classes[className(cls)] = std::move(entry);
        total += c.count;
        total_taken += c.taken;
        dir_miss += c.direction_mispredictions;
        tgt_miss += c.target_mispredictions;
    }
    json_t rollups = json_t::object({
        {"total_branches", total},
        {"total_taken", total_taken},
        {"direction_mispredictions", dir_miss},
        {"target_mispredictions", tgt_miss},
        {"direction_mpki", detail::mpkiOf(dir_miss, simulation_instr)},
        {"target_mpki", detail::mpkiOf(tgt_miss, simulation_instr)},
        {"misfetch_mpki",
         detail::mpkiOf(dir_miss + tgt_miss, simulation_instr)},
    });
    return json_t::object({
        {"classes", std::move(classes)},
        {"rollups", std::move(rollups)},
        {"structures", structuresJson()},
    });
}

std::optional<ComponentInfo>
FrontEnd::storage_components() const
{
    // The composite rule: an unreported conditional predictor leaves the
    // whole front end unreported.
    std::optional<ComponentInfo> cond = conditional_->storage_components();
    if (!cond.has_value())
        return std::nullopt;
    return ComponentInfo::composite(
        "frontend",
        {btb_.storageComponents(), ras_.storageComponents(),
         indirect_.storageComponents(), *std::move(cond)});
}

void
FrontEndKernel::runBlock(const KernelBlock &block, KernelTally &tally)
{
    const sbbt::BranchColumns &c = block.columns;
    for (std::size_t i = 0; i < c.size; ++i) {
        const std::uint8_t m = c.meta[i];
        const Branch b{c.ip[i], c.target[i], OpCode(m & 0x0f),
                       (m & 0x10) != 0};
        const bool measured = i >= block.mid;
        const StepResult r = front_end_->step(b, measured, block.track_all);
        if (!b.isConditional())
            continue;
        if (block.guesses != nullptr)
            block.guesses[i] = r.taken_predicted ? 1 : 0;
        if (measured) {
            ++tally.dynamic_cond;
            tally.mispredictions += r.taken_predicted != b.isTaken() ? 1 : 0;
        }
    }
}

namespace
{

/**
 * The frontend document of @p run's front ends first .. first + count
 * (its kernels are @p front_ends): simulate()'s layout for one, keys
 * suffixed _0, _1, ... for more (simulateMany()).
 */
json_t
frontEndDoc(const detail::RunDoc &run, const SimArgs &args,
            const std::vector<FrontEnd *> &front_ends, std::size_t first,
            std::size_t count)
{
    const auto key = [&](const char *stem, std::size_t i) {
        std::string name(stem);
        if (count > 1) {
            name += '_';
            name += std::to_string(i);
        }
        return name;
    };
    const std::uint64_t instr = run.simulation_instr;
    json_t result = json_t::object();
    result["metadata"] = detail::makeMetadata(
        run.name, args, instr, run.exhausted,
        run.tallies[first].dynamic_cond, run.static_branches);
    json_t metrics = json_t::object();
    for (std::size_t i = 0; i < count; ++i) {
        FrontEnd &fe = *front_ends[first + i];
        result["metadata"][key("predictor", i)] =
            detail::predictorMetadata(fe);
        const KernelTally &tally = run.tallies[first + i];
        metrics[key("mpki", i)] = detail::mpkiOf(tally.mispredictions, instr);
        metrics[key("mispredictions", i)] = tally.mispredictions;
        metrics[key("accuracy", i)] =
            detail::accuracyOf(tally.mispredictions, tally.dynamic_cond);
    }
    detail::addThroughputMetrics(
        metrics, run.dynamic_branches,
        count == 1 ? detail::throughputOf(run, first) : run.tp);
    result["metrics"] = std::move(metrics);
    for (std::size_t i = 0; i < count; ++i) {
        FrontEnd &fe = *front_ends[first + i];
        result[key("predictor_statistics", i)] =
            fe.conditional().execution_stats();
        result[key("frontend", i)] = fe.reportJson(instr);
    }
    return result;
}

/** The block driver's input for @p front_ends (none null): one
 *  FrontEndKernel each, and no per-site ranking, which the frontend
 *  documents do not carry. */
struct DriverInput
{
    DriverInput(const std::vector<FrontEnd *> &front_ends,
                const SimArgs &run_args)
        : args(run_args)
    {
        args.collect_most_failed = false;
        for (FrontEnd *fe : front_ends) {
            owned.push_back(std::make_unique<FrontEndKernel>(*fe));
            kernels.push_back(owned.back().get());
        }
    }

    SimArgs args;
    std::vector<std::unique_ptr<FrontEndKernel>> owned;
    std::vector<BlockKernel *> kernels;
};

/** The one- and N-front-end simulator: one joined run of the block
 *  driver, and the frontend document of the finished run. */
json_t
simulateFrontEnds(const char *kName, const std::vector<FrontEnd *> &front_ends,
                  const SimArgs &args)
{
    if (front_ends.empty())
        return detail::errorResult(kName, args,
                                   "no front ends to simulate");
    for (const FrontEnd *fe : front_ends) {
        if (fe == nullptr)
            return detail::errorResult(kName, args, "null front end");
    }
    const DriverInput in(front_ends, args);
    return detail::runJoined(
        kName, in.kernels, in.args, [&](const detail::RunDoc &run) {
            return frontEndDoc(run, args, front_ends, 0, front_ends.size());
        });
}

} // namespace

json_t
simulate(FrontEnd &front_end, const SimArgs &args)
{
    return simulateFrontEnds(kFrontEndSimulatorName, {&front_end}, args);
}

json_t
simulateMany(const std::vector<FrontEnd *> &front_ends,
             const SimArgs &args)
{
    return simulateFrontEnds(kFrontEndMultiSimulatorName, front_ends, args);
}

std::vector<json_t>
simulateEach(const std::vector<FrontEnd *> &front_ends, const SimArgs &args)
{
    const DriverInput in(front_ends, args);
    return detail::runEach(
        kFrontEndSimulatorName, in.kernels, in.args,
        [&](const detail::RunDoc &run, std::size_t k) {
            return frontEndDoc(run, args, front_ends, k, 1);
        });
}

} // namespace mbp::frontend
