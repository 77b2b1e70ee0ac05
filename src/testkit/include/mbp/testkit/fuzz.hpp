/**
 * @file
 * The structured fuzzing driver behind mbp_fuzz.
 *
 * runFuzz() generates deterministic adversarial streams (tracegen
 * adversarial vocabulary: aliasing storms, history wraps, RAS overflows,
 * monotone runs, phase flips, structured programs and their compositions),
 * runs each stream through
 *
 *  - the differential oracles: every DiffTarget pairs a subject with an
 *    independently written reference (reference.hpp, frontend_ref.hpp),
 *    checked branch-by-branch with runLockstep(), whatever its lane; and
 *  - the metamorphic oracles: warm-up split invariance, trace-format
 *    round-trip and same-seed determinism of simulate() itself
 *    (oracle.hpp), and warm-up additivity and determinism of
 *    frontend::simulate() (frontend_oracle.hpp),
 *
 * and, on any differential failure, shrinks the stream with ddmin
 * (shrink.hpp) and writes a replayable .sbbt plus a regression-test stanza
 * into the artifact directory. The whole run is a pure function of
 * FuzzOptions and the target list — same seed, same report, byte for
 * byte.
 */
#ifndef MBP_TESTKIT_FUZZ_HPP
#define MBP_TESTKIT_FUZZ_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/testkit/frontend_oracle.hpp"
#include "mbp/testkit/oracle.hpp"

namespace mbp::testkit
{

/**
 * The roster pairs with an independent reference implementation:
 * bimodal vs RefBimodal, gshare vs RefGshare, and the testkit's own
 * TageLite vs RefTageLite (the roster TAGE is far larger than any
 * obviously-correct reimplementation could be; the two-table TageLite
 * exercises the same tagged-provider logic at a checkable size).
 */
std::vector<DiffTarget> defaultDiffTargets();

/**
 * The conditional self-test target: BrokenGshare (an off-by-one
 * effective history length) against RefGshare. A healthy fuzzer must
 * flag it.
 */
DiffTarget brokenGshareTarget();

/** "conditional" or "frontend": the `lane` of a failure record. */
const char *laneName(Lane lane);

/** Knobs of one fuzzing run. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::size_t num_streams = 100;
    /** Upper bound on branches per generated stream. */
    std::size_t max_branches = 4096;
    /** Where shrunk repros and scratch traces are written. */
    std::string artifact_dir = "fuzz-artifacts";
    /** Roster names run through the metamorphic oracles. */
    std::vector<std::string> metamorphic_predictors = {"bimodal", "gshare",
                                                       "tage"};
    /**
     * Conditional-predictor roster names of the front-end lane: each is
     * composed into a FrontEnd and checked against RefFrontEnd (see
     * frontendDiffTargets) and through the frontend metamorphic oracles.
     * `frontend:NAME` entries of mbp_fuzz --predictors land here.
     */
    std::vector<std::string> frontend_predictors = {"gshare"};
    bool differential = true;
    bool metamorphic = true;
};

/**
 * Every lane's targets for @p options, in report order:
 * defaultDiffTargets(), then frontendDiffTargets(
 * options.frontend_predictors). What mbp_fuzz runs and lists.
 */
std::vector<DiffTarget> fuzzTargets(const FuzzOptions &options);

/**
 * Deterministically derives stream @p index of a run seeded @p seed. The
 * stream shape (which adversarial generator, what size, what parameters)
 * and every outcome depend only on (seed, index, max_branches).
 */
Events makeStream(std::uint64_t seed, std::size_t index,
                  std::size_t max_branches);

/**
 * Runs the full campaign over @p targets and returns a JSON report:
 * metadata (tool, version, options, each lane's target names), counts
 * (streams, each lane's checks) and a `failures` array with one entry
 * per violation — for differential failures including the target's
 * `lane`, the shrunk witness size and artifact paths. Deterministic for
 * fixed options. The conditional lane's report keys are `targets`,
 * `differential_checks` and `metamorphic_checks`; the front-end lane's
 * carry a `frontend_` prefix.
 */
json_t runFuzz(const FuzzOptions &options,
               const std::vector<DiffTarget> &targets);

} // namespace mbp::testkit

#endif // MBP_TESTKIT_FUZZ_HPP
