/**
 * @file
 * The branch predictor interface (paper §IV-A/§IV-B).
 *
 * A predictor overrides three functions:
 *  - predict(ip): produce the outcome guess. Must not change any state that
 *    affects future predictions.
 *  - train(branch): update the prediction structures with the resolved
 *    outcome.
 *  - track(branch): update the *scenario* — the record of recent program
 *    behavior (global history, path history, RAS...) used as input to
 *    predictions of other branches.
 *
 * The split between train and track is what makes predictors composable: a
 * meta-predictor may train a subcomponent selectively (partial update) while
 * still tracking every branch through it, and a filter may skip tracking
 * entirely (paper §VI-D).
 *
 * When driven by the simulator, track() is invoked for all branches, while
 * train() is invoked (before track) only for conditional branches.
 *
 * A predictor declares its hardware storage once, as the ComponentInfo
 * tree storage_components() returns: its budget is that tree's
 * totalBits(), and std::nullopt means it reports none. The simulator
 * documents, the front end and mbp_audit all read that one declaration.
 */
#ifndef MBP_SIM_PREDICTOR_HPP
#define MBP_SIM_PREDICTOR_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/branch.hpp"

namespace mbp
{

/**
 * One node of a predictor's declared storage inventory (paper Table II).
 *
 * A predictor describes its hardware cost as a tree: leaf nodes are
 * tables (`entries` rows of `bits_per_entry` bits) or registers
 * (`extra_bits` of non-tabular state such as history registers and
 * global counters); composite predictors nest their subcomponents as
 * `children`. The tree is the design's only storage declaration: its
 * budget is totalBits(), derived from the declared geometry, so a
 * composite costs exactly what its parts cost.
 */
struct ComponentInfo
{
    std::string name;
    std::uint64_t entries = 0;        //!< table rows; 0 for registers
    std::uint64_t bits_per_entry = 0; //!< bits per table row
    std::uint64_t extra_bits = 0;     //!< non-tabular bits (registers...)
    std::vector<ComponentInfo> children;

    /** A table leaf: @p entries rows of @p bits_per_entry bits. */
    static ComponentInfo
    table(std::string name, std::uint64_t entries,
          std::uint64_t bits_per_entry)
    {
        ComponentInfo info;
        info.name = std::move(name);
        info.entries = entries;
        info.bits_per_entry = bits_per_entry;
        return info;
    }

    /** A register leaf: @p bits of non-tabular state. */
    static ComponentInfo
    reg(std::string name, std::uint64_t bits)
    {
        ComponentInfo info;
        info.name = std::move(name);
        info.extra_bits = bits;
        return info;
    }

    /** A composite node owning @p children subcomponents. */
    static ComponentInfo
    composite(std::string name, std::vector<ComponentInfo> children)
    {
        ComponentInfo info;
        info.name = std::move(name);
        info.children = std::move(children);
        return info;
    }

    /** Derived storage cost: this node plus all children, in bits. */
    std::uint64_t
    totalBits() const
    {
        std::uint64_t bits = entries * bits_per_entry + extra_bits;
        for (const ComponentInfo &child : children)
            bits += child.totalBits();
        return bits;
    }

    /** JSON form used by the mbp_audit budget report. */
    json_t
    toJson() const
    {
        json_t node = json_t::object({{"name", name}});
        if (entries != 0) {
            node["entries"] = entries;
            node["bits_per_entry"] = bits_per_entry;
        }
        if (extra_bits != 0)
            node["extra_bits"] = extra_bits;
        node["total_bits"] = totalBits();
        if (!children.empty()) {
            json_t kids = json_t::array();
            for (const ComponentInfo &child : children)
                kids.push_back(child.toJson());
            node["children"] = std::move(kids);
        }
        return node;
    }
};

/** Abstract base class for every branch predictor in the suite. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /**
     * Guesses the outcome of the branch at @p ip given the current
     * scenario.
     *
     * Implementations must be idempotent with respect to future
     * predictions: calling predict() repeatedly without an intervening
     * train/track must return the same value. Caching the table lookups for
     * the subsequent train() call is allowed (and common).
     *
     * @param ip Instruction address of the branch.
     * @return True when the branch is predicted taken.
     */
    virtual bool predict(std::uint64_t ip) = 0;

    /**
     * Updates the prediction structures with the resolved branch.
     *
     * Called for conditional branches before track(). When the predictor is
     * a subcomponent, the owner decides when (and with what Branch) to call
     * it — e.g. partial update policies.
     */
    virtual void train(const Branch &branch) = 0;

    /**
     * Updates the scenario (speculation-free program state such as global
     * and path history) with the resolved branch. Called for every branch.
     */
    virtual void track(const Branch &branch) = 0;

    /**
     * Describes the predictor (name and configuration parameters) for the
     * `metadata.predictor` section of the simulator output.
     */
    virtual json_t
    metadata_stats() const
    {
        return json_t::object({{"name", "unnamed predictor"}});
    }

    /**
     * Execution statistics unique to the design (e.g. table conflicts) for
     * the `predictor_statistics` output section. Called after simulation.
     */
    virtual json_t execution_stats() const { return json_t::object(); }

    /**
     * Declared storage inventory: the table geometry and register state
     * the design is built from, as a ComponentInfo tree. Its totalBits()
     * is the design's hardware budget — the championship accounting (the
     * CBPs cap predictors at 64 kB + epsilon) — echoed into the
     * simulator output as `storage_bits`. std::nullopt (the default)
     * means the predictor does not report its storage, which the output
     * writes as null; an empty tree declares a genuinely storage-free
     * design (0 bits). A composite reports only when all of its parts
     * do.
     */
    virtual std::optional<ComponentInfo>
    storage_components() const
    {
        return std::nullopt;
    }
};

} // namespace mbp

#endif // MBP_SIM_PREDICTOR_HPP
