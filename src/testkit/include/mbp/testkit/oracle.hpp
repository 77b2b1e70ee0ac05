/**
 * @file
 * Differential and metamorphic oracles.
 *
 * Two complementary ways to decide "is this predictor/simulator right?"
 * without a ground-truth MPKI:
 *
 *  - runLockstep(): drive a subject and an independently written reference
 *    (reference.hpp) over the same event stream, mirroring simulate()'s
 *    calling convention, and stop at the first diverging prediction. A
 *    DiffTarget wraps one such pair for the fuzzer, in either lane:
 *    conditional predictors here, front ends in frontend_oracle.hpp.
 *
 *  - check*(): metamorphic invariants of simulate() itself — properties
 *    that must hold between *related runs* regardless of what the
 *    predictor predicts: warm-up splitting must not change behavior, a
 *    stream must survive a round-trip through every trace format, and the
 *    same inputs must give bit-identical metrics.
 *
 * Every check returns "" on success or a human-readable violation
 * description, so callers (gtest, the fuzzer) can aggregate freely.
 */
#ifndef MBP_TESTKIT_ORACLE_HPP
#define MBP_TESTKIT_ORACLE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/generator.hpp"

namespace mbp::testkit
{

/** A branch-event stream (the tracegen vocabulary). */
using Events = std::vector<tracegen::TraceEvent>;

/** Builds a fresh predictor per run (checks need independent instances). */
using PredictorFactory = std::function<std::unique_ptr<Predictor>()>;

/**
 * First point where subject and reference disagreed. A conditional
 * predictor can only disagree on a "direction"; a front end also on a
 * "target".
 */
struct Mismatch
{
    bool found = false;
    /** Index into the event stream of the diverging branch. */
    std::size_t event_index = 0;
    std::uint64_t ip = 0;
    /** "direction" or "target". */
    const char *field = "";
    bool subject_taken = false;
    bool reference_taken = false;
    std::uint64_t subject_target = 0;
    std::uint64_t reference_target = 0;

    /** One-line "subject predicted X, reference Y at ..." description. */
    std::string describe() const;
};

/**
 * Runs @p subject and @p reference over @p events in lockstep, mirroring
 * the simulator's calling convention (predict and train on conditional
 * branches, then track), and returns the first diverging prediction.
 */
Mismatch runLockstep(Predictor &subject, Predictor &reference,
                     const Events &events,
                     bool track_only_conditional = false);

/** The fuzzer's lanes; each has its own keys in the runFuzz() report. */
enum class Lane : std::uint8_t
{
    kConditional,
    kFrontend,
};

/** A subject/reference pair the fuzzer checks in lockstep. */
struct DiffTarget
{
    std::string name;
    Lane lane = Lane::kConditional;
    /** The mbp_sim command, less the trace path, that runs this target's
     *  subject over a witness ("mbp_sim gshare"), or "" when no mbp_sim
     *  predictor is the subject. */
    std::string replay;
    /** Runs fresh instances of the pair over the events. */
    std::function<Mismatch(const Events &)> run;
};

/**
 * A DiffTarget whose run() builds a fresh subject and reference from the
 * two factories and compares them with runLockstep().
 */
template <typename MakeSubject, typename MakeReference>
DiffTarget
lockstepTarget(std::string name, Lane lane, std::string replay,
               MakeSubject subject, MakeReference reference)
{
    return {std::move(name), lane, std::move(replay),
            [subject, reference](const Events &events) {
                auto s = subject();
                auto r = reference();
                return runLockstep(*s, *r, events);
            }};
}

/**
 * Writes @p events as an SBBT trace at @p path (header counts filled in
 * from the stream). @return "" on success, else an error description.
 */
std::string writeSbbtFile(const Events &events, const std::string &path);

/**
 * Warm-up split invariance: simulate(warmup = k) must behave as the
 * measured tail of the full run — the per-branch prediction stream is
 * unchanged, and full mispredictions == split mispredictions + the
 * mispredictions the split run attributes to warm-up. k is half the
 * stream's instructions. @p scratch_path is overwritten with the trace.
 */
std::string checkWarmupSplit(const PredictorFactory &factory,
                             const Events &events,
                             const std::string &scratch_path);

/**
 * Format round-trip: the stream must decode back bit-identically (ip,
 * target, opcode, outcome, gap) from each trace format in the suite —
 * SBBT, BTT (cbp5) and champsim-lite. Files are written next to
 * @p scratch_prefix. The BTT leg is skipped for streams where one ip
 * carries two different opcodes: the BTT node table keys opcodes by
 * address, so such streams (impossible for a real program, but
 * constructible by interleaving synthetic streams) are outside that
 * format's domain by design.
 */
std::string checkRoundTrip(const Events &events,
                           const std::string &scratch_prefix);

/** One simulation of a fresh subject: its simulate() document. */
using SimRunner = std::function<json_t(const SimArgs &args)>;

/**
 * Determinism: two runs of @p runner over the same trace (the stream
 * written at @p scratch_path) must report bit-identical documents
 * (timing fields excluded). The runner may be simulate() of a predictor
 * or frontend::simulate() of a front end; @p invariant names the check
 * in its messages.
 */
std::string checkDeterminism(const SimRunner &runner, const Events &events,
                             const std::string &scratch_path,
                             const char *invariant = "determinism");

/** "0x..." of @p value: how testkit messages and stanzas print addresses. */
std::string hex(std::uint64_t value);

/**
 * Serializes @p value with every member whose key mentions time removed,
 * recursively — the canonical "ignore the clock" form the determinism
 * checks compare.
 */
std::string stableDump(const json_t &value);

} // namespace mbp::testkit

#endif // MBP_TESTKIT_ORACLE_HPP
