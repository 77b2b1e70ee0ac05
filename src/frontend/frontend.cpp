/**
 * @file
 * FrontEnd composition, spec parsing and the frontend simulators.
 *
 * The simulate()/simulateMany()/simulateEach() entry points run each
 * FrontEnd, a BlockKernel, on the library's one block driver
 * (detail::runJoined/runEach in mbp/sim/kernels.hpp) through the same
 * column blocks as the conditional simulators, and take the driver's
 * own documents (detail::simulateDoc/manyDoc) with the "frontend"
 * sections added, so the frontend documents cannot drift from the
 * conditional simulators' conventions.
 */
#include "mbp/frontend/frontend.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <stdexcept>
#include <type_traits>
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
    : FrontEnd(std::make_unique<FusedKernel<Predictor>>(
                   std::move(conditional)),
               config)
{
}

namespace
{

/**
 * @return @p config, once validate() accepts it.
 * @throw std::invalid_argument carrying validate()'s message otherwise.
 */
const FrontEndConfig &
validated(const FrontEndConfig &config)
{
    if (std::string error = config.validate(); !error.empty())
        throw std::invalid_argument(error);
    return config;
}

} // namespace

FrontEnd::FrontEnd(std::unique_ptr<BlockKernel> direction,
                   const FrontEndConfig &config)
    : direction_(std::move(direction)), config_(validated(config)),
      btb_(config.btb), ras_(config.ras), indirect_(config.indirect)
{
}

namespace
{

/** The report class of each 4-bit opcode. */
constexpr std::array<BranchClass, 16> kClassOf = [] {
    std::array<BranchClass, 16> table{};
    for (unsigned bits = 0; bits < table.size(); ++bits)
        table[bits] = classify(OpCode(static_cast<std::uint8_t>(bits)));
    return table;
}();

} // namespace

FrontEnd::SiteKeys
FrontEnd::siteKeys(std::uint64_t ip) const
{
    return {btb_.setBase(ip), btb_.tagOf(ip), indirect_.siteIndex(ip),
            indirect_.siteTag(ip), 0};
}

template <bool kMeasured>
StepResult
FrontEnd::targetStep(SiteKeys &keys, std::uint64_t ip, std::uint64_t target,
                     std::uint8_t meta, bool guess)
{
    const OpCode opcode(meta & 0x0f);
    const bool taken = (meta & 0x10) != 0;
    StepResult result;
    result.cls = kClassOf[meta & 0x0f];
    result.taken_predicted = !opcode.isConditional() || guess;

    // 2. Target. Returns consult the RAS only; other indirect branches
    // try the path-indexed table first and fall back to the BTB; direct
    // branches use the BTB. A miss predicts 0 — no target, a misfetch on
    // any taken execution. The BTB set is scanned once per branch, for
    // the lookup or the update or both; the indirect slot is folded once.
    Btb::Probe probe;
    bool probed = false;
    IndirectTarget::Slot slot;
    if (opcode.isRet()) {
        result.target_predicted = ras_.peek();
    } else {
        bool hit = false;
        if (opcode.isIndirect()) {
            slot = indirect_.slot(keys.ind_index, keys.ind_tag);
            hit = indirect_.lookup(slot, result.target_predicted);
        }
        if (!hit) {
            probe =
                btb_.probe(keys.btb_base, keys.btb_tag, int(keys.btb_way));
            probed = true;
            if (btb_.lookup(probe, result.target_predicted))
                keys.btb_way = std::uint64_t(probe.hit);
        }
    }

    // 3. Accounting (measured rows only), without branches.
    const bool direction_wrong = opcode.isConditional() && guess != taken;
    if constexpr (kMeasured) {
        ClassCounts &c = counts_[static_cast<std::size_t>(result.cls)];
        c.count += 1;
        c.taken += std::uint64_t(taken);
        c.target_mispredictions +=
            std::uint64_t(taken && result.target_predicted != target);
        c.direction_mispredictions += std::uint64_t(direction_wrong);
    }

    // 4. Updates (every execution, warm-up included); the direction
    // predictor's own came first.
    if (taken) {
        if (opcode.isRet()) {
            ras_.pop();
        } else {
            if (opcode.isCall())
                ras_.push(ip + 4);
            if (!probed)
                probe = btb_.probe(keys.btb_base, keys.btb_tag,
                                   int(keys.btb_way));
            btb_.update(probe, target);
            keys.btb_way = std::uint64_t(probe.way());
            if (opcode.isIndirect())
                indirect_.update(slot, target);
        }
    }
    if (config_.corrupt_on_mispredict && direction_wrong)
        ras_.corrupt(ip + 4);
    indirect_.trackOutcome(taken);
    return result;
}

StepResult
FrontEnd::step(const Branch &branch, bool measured, bool track_all)
{
    // 1. Direction: the direction kernel over a one-row block.
    const std::uint64_t ip = branch.ip();
    const std::uint64_t target = branch.target();
    const std::uint64_t instr = 1;
    const std::uint8_t meta = static_cast<std::uint8_t>(
        branch.opcode().bits() | (branch.isTaken() ? 0x10 : 0));
    const std::uint32_t site = 0;
    const std::uint64_t first_seen = 1;
    std::uint8_t guess = 1;
    KernelBlock block;
    block.columns = {.ip = &ip,
                     .target = &target,
                     .instr = &instr,
                     .meta = &meta,
                     .site = &site,
                     .first_seen = &first_seen,
                     .size = 1};
    block.mid = measured ? 0 : 1;
    block.site_ips = &ip;
    block.num_sites = 1;
    block.track_all = track_all;
    block.guesses = &guess;
    KernelTally tally;
    direction_->runBlock(block, tally);
    SiteKeys keys = siteKeys(ip);
    return measured ? targetStep<true>(keys, ip, target, meta, guess != 0)
                    : targetStep<false>(keys, ip, target, meta, guess != 0);
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
    md["conditional"] = direction_->metadata_stats();
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
    // The composite rule: an unreported direction predictor leaves the
    // whole front end unreported.
    std::optional<ComponentInfo> cond = direction_->storage_components();
    if (!cond.has_value())
        return std::nullopt;
    return ComponentInfo::composite(
        "frontend",
        {btb_.storageComponents(), ras_.storageComponents(),
         indirect_.storageComponents(), *std::move(cond)});
}

void
FrontEnd::runBlock(const KernelBlock &block, KernelTally &tally)
{
    const sbbt::BranchColumns &c = block.columns;
    // The tally's fold holds kKeyWords words of SiteKeys per site; empty,
    // it is a fresh run's, and the direction kernel's memo starts over
    // with it.
    constexpr std::size_t kKeyWords = 5;
    if (tally.fold.empty())
        direction_tally_ = KernelTally{};

    // Stage 1: the direction kernel over the whole block. Its guesses go
    // where the driver's hook replay reads them, or to scratch.
    KernelBlock direction = block;
    direction.collect = false;
    if (direction.guesses == nullptr) {
        guesses_.resize(c.size);
        direction.guesses = guesses_.data();
    }
    direction_tally_.dynamic_cond = 0;
    direction_tally_.mispredictions = 0;
    direction_->runBlock(direction, direction_tally_);
    tally.dynamic_cond += direction_tally_.dynamic_cond;
    tally.mispredictions += direction_tally_.mispredictions;

    // Stage 2: the target half over every row, on keys folded once per
    // static site, the warm-up rows uncounted.
    for (std::size_t s = tally.fold.size() / kKeyWords; s < block.num_sites;
         ++s) {
        const SiteKeys k = siteKeys(block.site_ips[s]);
        tally.fold.insert(tally.fold.end(), {k.btb_base, k.btb_tag,
                                             k.ind_index, k.ind_tag,
                                             k.btb_way});
    }
    std::uint64_t *keys = tally.fold.data();
    const std::uint8_t *guesses = direction.guesses;
    const auto rows = [&](std::size_t begin, std::size_t end,
                          auto measured) {
        for (std::size_t i = begin; i < end; ++i) {
            std::uint64_t *k = keys + kKeyWords * c.site[i];
            SiteKeys site{k[0], k[1], k[2], k[3], k[4]};
            targetStep<decltype(measured)::value>(
                site, c.ip[i], c.target[i], c.meta[i], guesses[i] != 0);
            k[4] = site.btb_way;
        }
    };
    rows(0, block.mid, std::false_type{});
    rows(block.mid, c.size, std::true_type{});
}

namespace
{

/** @p args without the per-site ranking, which the frontend documents
 *  do not carry. */
SimArgs
unranked(const SimArgs &args)
{
    SimArgs run_args = args;
    run_args.collect_most_failed = false;
    return run_args;
}

/** simulate()'s document of front end @p k of @p run: the driver's
 *  simulate() document and the front end's per-class section. */
json_t
oneFrontEndDoc(const detail::RunDoc &run, std::size_t k, const FrontEnd &fe)
{
    json_t doc = detail::simulateDoc(run, k, fe);
    doc["frontend"] = fe.reportJson(run.simulation_instr);
    return doc;
}

bool
hasNull(const std::vector<FrontEnd *> &front_ends)
{
    return std::find(front_ends.begin(), front_ends.end(), nullptr) !=
           front_ends.end();
}

} // namespace

json_t
simulate(FrontEnd &front_end, const SimArgs &args)
{
    return detail::runJoined(kFrontEndSimulatorName, {&front_end},
                             unranked(args), [&](const detail::RunDoc &run) {
                                 return oneFrontEndDoc(run, 0, front_end);
                             });
}

json_t
simulateMany(const std::vector<FrontEnd *> &front_ends,
             const SimArgs &args)
{
    const char *name = kFrontEndMultiSimulatorName;
    if (front_ends.empty())
        return detail::errorResult(name, args, "no front ends to simulate");
    if (hasNull(front_ends))
        return detail::errorResult(name, args, "null front end");
    const std::vector<BlockKernel *> kernels(front_ends.begin(),
                                             front_ends.end());
    return detail::runJoined(
        name, kernels, unranked(args), [&](const detail::RunDoc &run) {
            if (front_ends.size() == 1)
                return oneFrontEndDoc(run, 0, *front_ends[0]);
            json_t doc = detail::manyDoc(run, kernels);
            for (std::size_t k = 0; k < front_ends.size(); ++k)
                doc["frontend_" + std::to_string(k)] =
                    front_ends[k]->reportJson(run.simulation_instr);
            return doc;
        });
}

std::vector<json_t>
simulateEach(const std::vector<FrontEnd *> &front_ends, const SimArgs &args)
{
    const char *name = kFrontEndSimulatorName;
    if (hasNull(front_ends))
        return std::vector<json_t>(
            front_ends.size(),
            detail::errorResult(name, args, "null front end"));
    const std::vector<BlockKernel *> kernels(front_ends.begin(),
                                             front_ends.end());
    return detail::runEach(name, kernels, unranked(args),
                           [&](const detail::RunDoc &run, std::size_t k) {
                               return oneFrontEndDoc(run, k, *front_ends[k]);
                           });
}

} // namespace mbp::frontend
