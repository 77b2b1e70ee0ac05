/**
 * @file
 * Differential and metamorphic oracles for the front-end tier.
 *
 * Mirrors oracle.hpp's structure one level up the stack: instead of one
 * direction prediction per conditional branch, the lockstep compares the
 * whole fetch prediction — direction *and* target — for *every* branch
 * class, with mbp::frontend::FrontEnd as the subject and the naive
 * RefFrontEnd (frontend_ref.hpp) as the reference. Its targets are
 * DiffTargets of the front-end lane, and checkDeterminism() takes a
 * frontend::simulate() runner. The one front-end-only metamorphic check
 * pins frontend::simulate() itself: per-class counters must be additive
 * across a warmup split.
 */
#ifndef MBP_TESTKIT_FRONTEND_ORACLE_HPP
#define MBP_TESTKIT_FRONTEND_ORACLE_HPP

#include <string>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/testkit/frontend_ref.hpp"
#include "mbp/testkit/oracle.hpp"

namespace mbp::testkit
{

/**
 * Runs subject and reference over @p events in lockstep, comparing the
 * full per-branch prediction (direction first, then target), and stops
 * at the first divergence.
 */
Mismatch runLockstep(frontend::FrontEnd &subject, RefFrontEnd &reference,
                     const Events &events);

/**
 * Two front-end-lane targets per conditional-predictor roster name: the
 * default configuration, and a deliberately tiny "small" one (2-way FIFO
 * BTB, 4-deep discard/reuse RAS, 6-bit indirect table, corruption model
 * on) whose constant capacity pressure exercises every replacement and
 * overflow edge. Unknown roster names are skipped.
 */
std::vector<DiffTarget>
frontendDiffTargets(const std::vector<std::string> &conditional_names);

/**
 * The front-end self-test target: a real FrontEnd against a RefFrontEnd
 * carrying the kBtbStaleTarget mutation. A healthy fuzzer must flag it
 * and shrink a small witness (any repeated taken branch suffices).
 */
DiffTarget brokenFrontendTarget();

/**
 * Warmup-split additivity of the per-class counters: for k = half the
 * stream, every counter of every class in the full run's report must
 * equal its prefix-run (sim_instr = k) value plus its tail-run
 * (warmup_instr = k) value. @p runner runs frontend::simulate();
 * @p scratch_path is overwritten.
 */
std::string checkFrontendWarmupSplit(const SimRunner &runner,
                                     const Events &events,
                                     const std::string &scratch_path);

} // namespace mbp::testkit

#endif // MBP_TESTKIT_FRONTEND_ORACLE_HPP
