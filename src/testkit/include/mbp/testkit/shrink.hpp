/**
 * @file
 * Delta-debugging trace shrinker.
 *
 * A fuzzer finding a divergence on a 4000-branch stream is only half the
 * job — nobody debugs 4000 branches. shrinkStream() applies the classic
 * ddmin algorithm (Zeller & Hildebrandt 2002) to the event stream: remove
 * chunks while the failure predicate still holds, halving chunk size until
 * the stream is 1-minimal (no single event can be removed). Event streams
 * are closed under subsequence — every branch is valid on its own — so any
 * candidate is a well-formed trace.
 *
 * writeRepro() turns the minimal stream into durable artifacts: a replayable
 * .sbbt trace plus a ready-to-paste gtest regression stanza, whose
 * runLockstep(subject, reference, events) call fits either lane's pair.
 */
#ifndef MBP_TESTKIT_SHRINK_HPP
#define MBP_TESTKIT_SHRINK_HPP

#include <functional>
#include <string>

#include "mbp/testkit/oracle.hpp"

namespace mbp::testkit
{

/**
 * Shrinks @p events to a 1-minimal stream for which @p stillFails returns
 * true. The predicate must be deterministic and is expected to construct
 * fresh predictor instances per evaluation. When the initial stream does
 * not satisfy the predicate it is returned unchanged.
 */
Events shrinkStream(Events events,
                    const std::function<bool(const Events &)> &stillFails);

/** Where writeRepro() left the artifacts. */
struct ReproArtifact
{
    std::string sbbt_path;
    std::string stanza_path;
    std::size_t num_branches = 0;
};

/**
 * Writes @p events into @p dir (created if needed) as `<name>.sbbt` plus
 * `<name>.repro.txt`, a self-contained gtest stanza reproducing the
 * failure. @p description is embedded as a comment (typically
 * Mismatch::describe() plus the target name).
 */
ReproArtifact writeRepro(const std::string &dir, const std::string &name,
                         const Events &events,
                         const std::string &description);

} // namespace mbp::testkit

#endif // MBP_TESTKIT_SHRINK_HPP
