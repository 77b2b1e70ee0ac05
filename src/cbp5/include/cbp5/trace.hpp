/**
 * @file
 * The BTT plain-text branch-trace format of the CBP5-style baseline
 * framework.
 *
 * BTT reproduces the two structural properties of the real CBP5 BT9 format
 * that the paper's evaluation hinges on (§IV, §VII-D):
 *  1. It is *plain text*, so reading costs a parse per record.
 *  2. It starts with a *branch-graph* header — nodes are static branches,
 *     edges are (branch, outcome) pairs — and the body is a sequence of
 *     edge ids, so every record requires a lookup in a hashed id->metadata
 *     structure while SBBT packets are self-contained.
 *
 * Layout:
 *   BTT v1
 *   instruction_count <u64>
 *   branch_count <u64>
 *   node_count <u64>
 *   edge_count <u64>
 *   node <id> <ip-hex> <opcode-bits>
 *   ...
 *   edge <id> <src-node-id> <T|N> <target-hex> <instr-gap>
 *   ...
 *   ----
 *   <edge id>            (one per executed branch, in order)
 */
#ifndef CBP5_TRACE_HPP
#define CBP5_TRACE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/branch.hpp"
#include "mbp/utils/flat_hash_map.hpp"

namespace cbp5
{

/** Metadata of one branch-graph edge: everything a record resolves to. */
struct EdgeInfo
{
    mbp::Branch branch;
    std::uint32_t instr_gap = 0;
};

/**
 * Writes a BTT trace. The branch graph is discovered on the fly, so the
 * whole edge-id sequence is buffered and the file is written on close().
 */
class BttWriter
{
  public:
    /** @param path Output file; ".gz"/".flz" selects compression. */
    explicit BttWriter(std::string path);

    /** Appends one executed branch. */
    void append(const mbp::Branch &branch, std::uint32_t instr_gap);

    /**
     * Writes the graph header and the buffered sequence.
     * @return False on I/O failure.
     */
    bool close();

    /** @return Description of the first error ("" when none). */
    const std::string &error() const { return error_; }

  private:
    std::string path_;
    std::string error_;
    // Graph discovery: key = branch ip -> node id; edge key -> edge id.
    mbp::util::FlatHashMap<std::uint32_t> node_of_ip_;
    mbp::util::FlatHashMap<std::uint32_t> edge_of_key_;
    std::vector<std::uint64_t> node_ips_;
    std::vector<std::uint8_t> node_opcodes_;
    std::vector<std::uint32_t> edge_src_;
    std::vector<EdgeInfo> edges_;
    std::vector<std::uint32_t> sequence_;
    std::uint64_t instruction_count_ = 0;
    bool closed_ = false;
};

/**
 * Reads a BTT trace: parses the graph into hashed lookup structures, then
 * yields one branch per body line.
 *
 * Deliberately written in the style of the real CBP5 BT9 reader — line
 * tokenization through std::istringstream, std::stoull conversions and
 * std::unordered_map metadata lookups — because this *is* the baseline the
 * paper measures against: an idiomatic but unoptimized text-trace reader.
 * Its per-record cost (string allocation, stream locale machinery, hashed
 * lookup cache misses) is the bulk of the 18.4x gap of Table III; see
 * §VII-D, which shows the compression codec explains almost none of it.
 */
class BttReader
{
  public:
    explicit BttReader(const std::string &path);

    /** @return Whether the header parsed successfully. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /** Total instructions the trace represents. */
    std::uint64_t instructionCount() const { return instruction_count_; }
    /** Total branches in the sequence. */
    std::uint64_t branchCount() const { return branch_count_; }

    /**
     * Reads the next executed branch.
     * @return False at end of trace or on error.
     */
    bool next(EdgeInfo &out);

  private:
    /** Parses header and graph; @p max_lines bounds the header's node
     *  and edge counts (what the input can hold). */
    bool parseHeader(std::uint64_t max_lines);

    std::unique_ptr<mbp::compress::InStream> input_;
    std::string error_;
    std::string line_;
    // Edge id -> metadata, stored hashed like the BT9 reader the paper
    // describes (the source of its per-record cache misses).
    std::unordered_map<std::uint64_t, EdgeInfo> edges_;
    std::uint64_t instruction_count_ = 0;
    std::uint64_t branch_count_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace cbp5

#endif // CBP5_TRACE_HPP
