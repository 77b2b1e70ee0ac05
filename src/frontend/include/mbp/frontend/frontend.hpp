/**
 * @file
 * The front-end realism tier: full fetch-stream prediction.
 *
 * The roster predicts one conditional at a time; a real front end
 * predicts *every* branch of the fetch stream — direction through the
 * conditional predictor, target through a banked BTB, a return address
 * stack and an indirect-target table. FrontEnd composes any roster
 * conditional predictor with those three structures and consumes the
 * same SBBT streams (the target and branch-type fields are already in
 * every packet), producing the per-branch-class breakdown
 * (conditional / direct jump / indirect jump / direct call / indirect
 * call / return) that ChampSim-style simulators report and that the
 * CBP-dissection literature relies on (see DESIGN.md "Front-end tier").
 *
 * frontend::simulate()/simulateMany() mirror the mbp::simulate()
 * document (metadata / metrics / predictor_statistics) and add a
 * "frontend" section: per-class counts and target mispredictions,
 * MPKI-style rollups, and the BTB/RAS/indirect structure statistics.
 * They run on the library's one block driver (mbp/sim/kernels.hpp),
 * each FrontEnd wrapped in a FrontEndKernel, so trace reading, the
 * warm-up/limit window and the prediction hook follow the conditional
 * simulators' rules.
 *
 * A FrontEnd keeps its direction predictor's fast path: it drives the
 * predictor as a BlockKernel (a fused kernel, or FusedKernel<Predictor>
 * around a virtual one), which FrontEndKernel runs over a whole block
 * before one pass over the block's rows predicts and updates the
 * targets. That pass folds the BTB and indirect-table address hashes
 * once per static site and scans each branch's BTB set once.
 *
 * Everything here is deterministic and is replayed branch-for-branch by
 * the naive reference oracles in mbp::testkit (frontend_ref.hpp) under
 * mbp_fuzz — the same differential discipline the conditional roster
 * gets from RefBimodal/RefGshare.
 */
#ifndef MBP_FRONTEND_FRONTEND_HPP
#define MBP_FRONTEND_FRONTEND_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mbp/frontend/btb.hpp"
#include "mbp/frontend/indirect.hpp"
#include "mbp/frontend/ras.hpp"
#include "mbp/json/json.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp::frontend
{

/** Simulator display name of frontend::simulate() documents. */
inline constexpr const char *kFrontEndSimulatorName =
    "MBPlib frontend simulator";
/** Simulator display name of frontend::simulateMany() documents. */
inline constexpr const char *kFrontEndMultiSimulatorName =
    "MBPlib frontend multi simulator";

/**
 * The branch classes of the per-class report. Every branch falls in
 * exactly one class, so the class counts sum to the total branch count
 * (an invariant the test suite pins on every roster configuration).
 */
enum class BranchClass : std::uint8_t
{
    kConditional = 0, //!< conditional direct jumps
    kJumpDirect,      //!< unconditional direct jumps
    kJumpIndirect,    //!< indirect jumps (incl. conditional indirect)
    kCallDirect,      //!< direct calls (incl. conditional calls)
    kCallIndirect,    //!< indirect calls
    kReturn,          //!< returns
};

inline constexpr std::size_t kNumBranchClasses = 6;

/** Display name of @p cls ("conditional", "jump_direct", ...). */
const char *className(BranchClass cls);

/** Maps an opcode to its report class (type first, then indirection). */
constexpr BranchClass
classify(OpCode opcode)
{
    if (opcode.isRet())
        return BranchClass::kReturn;
    if (opcode.isCall())
        return opcode.isIndirect() ? BranchClass::kCallIndirect
                                   : BranchClass::kCallDirect;
    if (opcode.isIndirect())
        return BranchClass::kJumpIndirect;
    return opcode.isConditional() ? BranchClass::kConditional
                                  : BranchClass::kJumpDirect;
}

/** Measured-window counters of one branch class. */
struct ClassCounts
{
    std::uint64_t count = 0; //!< executions
    std::uint64_t taken = 0;
    /** Wrong direction guesses (conditional branches only). */
    std::uint64_t direction_mispredictions = 0;
    /** Taken executions whose predicted target was wrong or missing. */
    std::uint64_t target_mispredictions = 0;
};

/** Full configuration of a FrontEnd. */
struct FrontEndConfig
{
    BtbConfig btb;
    RasConfig ras;
    IndirectConfig indirect;
    /**
     * Wrong-path RAS corruption model: every conditional direction
     * misprediction pushes the bogus fall-through (ip + 4) onto the RAS,
     * the footprint one speculatively fetched call leaves behind.
     */
    bool corrupt_on_mispredict = false;

    /** @return "" when every sub-config is usable, else what is wrong. */
    std::string validate() const;
};

/**
 * Parses the `--frontend` spec grammar: a comma list of key=value pairs,
 * all optional (an empty spec is the default configuration).
 *
 *   btb-sets=N btb-ways=N btb-banks=N btb-tag=N btb-repl=lru|fifo
 *   ras=N ras-overflow=wrap|discard ras-underflow=zero|reuse
 *   ind-bits=N ind-tag=N ind-hist=N corrupt=on|off
 *
 * btb-sets/btb-banks take entry counts and must be powers of two; the
 * BTB's sets x ways x banks must be at most BtbConfig::kMaxEntries.
 *
 * @return Whether the spec parsed and validated; on failure @p error
 *         names the offending key.
 */
bool parseFrontEndSpec(const std::string &spec, FrontEndConfig &out,
                       std::string &error);

/** What FrontEnd::step() predicted for one branch. */
struct StepResult
{
    BranchClass cls = BranchClass::kConditional;
    /** Predicted direction (true for every non-conditional branch). */
    bool taken_predicted = true;
    /** Predicted target (0 = no prediction, a guaranteed misfetch). */
    std::uint64_t target_predicted = 0;
};

/**
 * A complete branch front end: a direction predictor, a Btb (direct
 * targets, indirect fallback), a Ras (return targets) and an
 * IndirectTarget (path-disambiguated indirect targets).
 *
 * The direction predictor is a BlockKernel, so a front end around a
 * roster predictor steps it through that predictor's own fast path (a
 * fused kernel from pred::fusedKernelByName) or through the virtual
 * interface (FusedKernel<Predictor>). Nothing in the BTB, the RAS or
 * the indirect table feeds back into it: the corruption model only
 * reads its guess. So a block runs in two stages (FrontEndKernel): the
 * direction kernel over the whole block, then the target half over
 * every row. step() is the one-row case of the same two stages.
 */
class FrontEnd
{
  public:
    /**
     * @param conditional Direction predictor; must be non-null. The
     *        FrontEnd owns it and steps it through a
     *        FusedKernel<Predictor> (virtual calls).
     */
    FrontEnd(std::unique_ptr<Predictor> conditional,
             const FrontEndConfig &config = {});

    /**
     * @param direction Direction kernel; must be non-null. The FrontEnd
     *        owns it and runs it over every branch: predict, train and
     *        track on conditional branches, track on the others per the
     *        simulator convention.
     * @throw std::invalid_argument with FrontEndConfig::validate()'s
     *        message when @p config is unusable, before the BTB, RAS or
     *        indirect table is sized (as is the other constructor,
     *        which delegates here).
     */
    FrontEnd(std::unique_ptr<BlockKernel> direction,
             const FrontEndConfig &config = {});

    /**
     * Predicts, accounts (measured executions only) and updates for one
     * branch. The exact sequence, mirrored by testkit::RefFrontEnd:
     *
     *  1. direction: the conditional predictor for conditional branches,
     *     taken otherwise;
     *  2. target: returns peek the RAS; other indirect branches probe
     *     the indirect table, falling back to the BTB on a tag miss;
     *     direct branches probe the BTB; a miss predicts 0;
     *  3. accounting (when @p measured): class count, direction
     *     misprediction (conditional only), target misprediction (taken
     *     executions whose predicted target != actual);
     *  4. update: train the conditional predictor on conditional
     *     branches and track it on every branch (on conditional ones
     *     only when @p track_all is false, the SimArgs::
     *     track_only_conditional convention); taken returns pop the RAS;
     *     taken calls push ip + 4; taken non-return branches update the
     *     BTB; taken indirect non-return branches update the indirect
     *     table; a mispredicted conditional pushes a corruption entry
     *     when the model is on; the outcome shifts into the indirect path
     *     history.
     *
     * The direction predictor's steps (1 and its part of 4) come first,
     * as a one-row block of the direction kernel; the rest is the target
     * half that FrontEndKernel runs per row.
     */
    StepResult step(const Branch &branch, bool measured,
                    bool track_all = true);

    const FrontEndConfig &config() const { return config_; }
    const Btb &btb() const { return btb_; }
    const Ras &ras() const { return ras_; }
    const IndirectTarget &indirect() const { return indirect_; }

    /** Measured-window counters of @p cls. */
    const ClassCounts &
    classCounts(BranchClass cls) const
    {
        return counts_[static_cast<std::size_t>(cls)];
    }

    /** @return Sum of all class counts (== measured branch executions). */
    std::uint64_t totalCounted() const;

    /** Name/configuration document for `metadata.predictor`. */
    json_t metadata_stats() const;

    /** The direction predictor's `predictor_statistics`. */
    json_t execution_stats() const { return direction_->execution_stats(); }

    /** BTB/RAS/indirect structure statistics document. */
    json_t structuresJson() const;

    /**
     * The per-class report: `classes` (one object per class with count,
     * taken, direction/target mispredictions), `rollups` (totals and
     * MPKI-style rates over @p simulation_instr) and `structures`.
     */
    json_t reportJson(std::uint64_t simulation_instr) const;

    /** Declared storage: the three structures plus the direction
     *  predictor's tree, or std::nullopt when the direction predictor
     *  reports none. */
    std::optional<ComponentInfo> storage_components() const;

  private:
    friend class FrontEndKernel;

    /** The keys of one static branch site: its address folds, and the
     *  BTB way its tag was last found in (a hint; any way is exact). */
    struct SiteKeys
    {
        std::uint64_t btb_base;  //!< Btb::setBase()
        std::uint64_t btb_tag;   //!< Btb::tagOf()
        std::uint64_t ind_index; //!< IndirectTarget::siteIndex()
        std::uint64_t ind_tag;   //!< IndirectTarget::siteTag()
        std::uint64_t btb_way;   //!< Btb::probe() hint
    };

    SiteKeys siteKeys(std::uint64_t ip) const;

    /** Steps 2-4 of step() but the direction predictor's own, for a
     *  branch whose direction guess is @p guess (ignored for
     *  unconditional branches); counted when kMeasured. Refreshes
     *  @p keys' way hint. */
    template <bool kMeasured>
    [[gnu::always_inline]] inline StepResult
    targetStep(SiteKeys &keys, std::uint64_t ip, std::uint64_t target,
               std::uint8_t meta, bool guess);

    std::unique_ptr<BlockKernel> direction_;
    FrontEndConfig config_;
    Btb btb_;
    Ras ras_;
    IndirectTarget indirect_;
    std::array<ClassCounts, kNumBranchClasses> counts_{};
};

/**
 * A FrontEnd as a kernel of the block driver. runBlock() runs each
 * block in two stages: the front end's direction kernel over the whole
 * block, its guesses into a scratch row (or the driver's hook row), and
 * then the target half over every row, on per-site keys memoized once
 * per static site in the tally's fold. It counts the measured
 * conditionals and direction mispredictions, as the direction kernel
 * counted them, into the tally. The front end must outlive the kernel.
 */
class FrontEndKernel final : public BlockKernel
{
  public:
    explicit FrontEndKernel(FrontEnd &front_end) : front_end_(&front_end) {}

    json_t metadata_stats() const override
    {
        return front_end_->metadata_stats();
    }
    json_t execution_stats() const override
    {
        return front_end_->execution_stats();
    }
    std::optional<ComponentInfo> storage_components() const override
    {
        return front_end_->storage_components();
    }

    void runBlock(const KernelBlock &block, KernelTally &tally) override;

  private:
    FrontEnd *front_end_;
    // The direction kernel's tally in the current run: its site-fold
    // memo persists across blocks, its counts move to the run's tally.
    KernelTally direction_;
    std::vector<std::uint8_t> guesses_; // unhooked runs' stage-1 output
};

/**
 * Runs @p front_end over the trace and returns the frontend document:
 * the simulate() layout (metadata / metrics / predictor_statistics,
 * same keys, no most_failed) plus the "frontend" per-class section.
 * `metrics.mpki/mispredictions/accuracy` keep their conditional-
 * direction meaning so existing consumers read the document unchanged;
 * the target-misprediction rollups live under "frontend".
 *
 * Honors SimArgs trace selection (trace_path / in_memory / mem_budget /
 * preloaded), warmup_instr / sim_instr windows, track_only_conditional
 * and prediction_hook, fired per conditional branch with the direction
 * guess under the one rule of SimArgs::prediction_hook: after the whole
 * block's steps, branch-major with the front-end index ascending.
 * collect_most_failed is ignored: the per-class breakdown, not a
 * per-site ranking, is this simulator's observability surface.
 */
json_t simulate(FrontEnd &front_end, const SimArgs &args);

/**
 * The N-front-end variant: one trace pass feeds every FrontEnd, the
 * document generalizes metadata/metrics with _k suffixes (the
 * simulateMany() convention) and carries one frontend_k section per
 * front end.
 */
json_t simulateMany(const std::vector<FrontEnd *> &front_ends,
                    const SimArgs &args);

/**
 * simulate() over each of @p front_ends (none null) in one pass over the
 * trace (a sweep's pass): entry k is simulate(*front_ends[k], args)'s
 * document but for the timing fields, as in detail::simulateEach().
 */
std::vector<json_t> simulateEach(const std::vector<FrontEnd *> &front_ends,
                                 const SimArgs &args);

} // namespace mbp::frontend

#endif // MBP_FRONTEND_FRONTEND_HPP
