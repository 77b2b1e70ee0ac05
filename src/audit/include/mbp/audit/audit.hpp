/**
 * @file
 * Storage audit: the championship budget accounting as a report.
 *
 * MBPlib's value proposition is that predictors are composed from
 * modular components whose storage cost is accountable (paper Table II).
 * Each predictor declares its storage once, as the ComponentInfo tree
 * its storage_components() returns, and its budget is that tree's
 * total. This module walks the roster, sorts each predictor into ok,
 * zero-cost (an empty tree: a genuinely storage-free design) or
 * unreported (no tree at all), and renders the totals as a paper
 * Table-II-style budget report, JSON or text. The CBP-style budget gate
 * (predictors capped at N bits) rides on the same report.
 *
 * @code
 *   auto entries = mbp::audit::auditRoster();
 *   mbp::json_t report = mbp::audit::report(entries, {});
 *   std::cout << mbp::audit::renderTable(report);
 *   return mbp::audit::clean(entries) ? 0 : 1;
 * @endcode
 */
#ifndef MBP_AUDIT_AUDIT_HPP
#define MBP_AUDIT_AUDIT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp::audit
{

/** Outcome of auditing one predictor's storage declaration. */
enum class Status
{
    /** A component tree with a non-zero total. */
    kOk,
    /** A component tree totalling zero — a genuinely storage-free
     *  design (static predictors). */
    kZeroCost,
    /** No component tree: the silent base-class default — the design
     *  reports nothing at all. */
    kUnreported,
};

/** Stable identifier used in reports ("ok", "zero-cost", ...). */
const char *statusName(Status status);

/** @return Whether @p status is a passing outcome (ok / zero-cost). */
bool statusPasses(Status status);

/** One audited predictor. */
struct Entry
{
    std::string name;
    Status status = Status::kUnreported;
    /** The total of the component tree (0 when unreported). */
    std::uint64_t derived_bits = 0;
    /** The declared tree itself, when present. */
    std::optional<ComponentInfo> components;
};

/** Audits one predictor instance under the report name @p name. */
Entry auditPredictor(const std::string &name, const Predictor &predictor);

/**
 * Audits every roster predictor (mbp::pred::rosterNames(), fresh default
 * instances), in roster order.
 */
std::vector<Entry> auditRoster();

/**
 * Audits the given roster subset. Unknown names produce an Entry with
 * status kUnreported and a 0 budget; callers that must reject unknown
 * names (the CLI does, as a usage error) validate beforehand with
 * mbp::pred::makeByName.
 */
std::vector<Entry> auditByNames(const std::vector<std::string> &names);

/** Report-shaping options. */
struct Options
{
    /**
     * CBP-style storage budget in bits (0 = no gate). Predictors whose
     * audited cost exceeds it are flagged over budget: the leaderboard
     * gate for championship-style submissions.
     */
    std::uint64_t budget_bits = 0;
    /** Embed each predictor's full component tree in the JSON report. */
    bool include_components = true;
};

/**
 * Builds the budget report document:
 *   - "metadata": tool, version, roster size, budget;
 *   - "predictors": per-entry {name, status, derived_bits (null when
 *     unreported), kib, over_budget, components?};
 *   - "summary": counts per status, failures, over_budget.
 */
json_t report(const std::vector<Entry> &entries,
              const Options &options = {});

/**
 * Renders a report document as the paper-Table-II-style text table
 * (name, status, derived bits, KiB, budget flag).
 */
std::string renderTable(const json_t &report);

/**
 * @return Whether every entry passes (no unreported storage) — the
 *         CLI's exit-0 condition (combined with the budget gate when
 *         one is set).
 */
bool clean(const std::vector<Entry> &entries);

} // namespace mbp::audit

#endif // MBP_AUDIT_AUDIT_HPP
