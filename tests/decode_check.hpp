/**
 * @file
 * Decode-equivalence checks shared by the trace tests.
 *
 * The reference decode reads a trace packet by packet through
 * SbbtReader::next() and numbers its sites with a std::unordered_map:
 * nothing of the bulk column decode (sbbt::SiteDecoder, its site memo or
 * the flat site map) takes part. MemTrace::load and TraceWindow must
 * deliver exactly its rows, site table, first-seen bits and per-site
 * conditional counts, and on a faulty trace exactly its error: the arena
 * fails whole, and the window hands out every row before the fault
 * first.
 */
#ifndef MBP_TESTS_DECODE_CHECK_HPP
#define MBP_TESTS_DECODE_CHECK_HPP

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"

namespace mbp::test
{

/** What the reference decode delivered before it stopped, and why. */
struct DecodedTrace
{
    std::vector<std::uint64_t> ip, target, instr;
    std::vector<std::uint8_t> meta;
    std::vector<std::uint32_t> site;
    std::vector<bool> first_seen;
    std::vector<std::uint64_t> site_ips, site_cond_occ;
    std::string error; //!< "" when the whole trace decoded

    std::size_t size() const { return ip.size(); }
};

/** The reference: one packet per read and per next() call. */
inline DecodedTrace
decodeByPackets(const std::string &path)
{
    DecodedTrace out;
    sbbt::SbbtReader reader(path, {.block_packets = 1, .prefetch = false});
    std::unordered_map<std::uint64_t, std::uint32_t> site_of;
    sbbt::PacketData p;
    while (reader.next(p)) {
        const Branch &b = p.branch;
        const auto [it, fresh] = site_of.try_emplace(
            b.ip(), static_cast<std::uint32_t>(out.site_ips.size()));
        if (fresh) {
            out.site_ips.push_back(b.ip());
            out.site_cond_occ.push_back(0);
        }
        if (b.isConditional())
            ++out.site_cond_occ[it->second];
        out.ip.push_back(b.ip());
        out.target.push_back(b.target());
        out.instr.push_back(reader.instrNumber());
        out.meta.push_back(static_cast<std::uint8_t>(
            b.opcode().bits() | (b.isTaken() ? 0x10 : 0)));
        out.site.push_back(it->second);
        out.first_seen.push_back(fresh);
    }
    out.error = reader.error();
    return out;
}

/**
 * @return "" when @p got equals rows [begin, begin + got.size) of
 *         @p want, else the first difference.
 */
inline std::string
diffRows(const DecodedTrace &want, std::size_t begin,
         const sbbt::BranchColumns &got)
{
    if (begin + got.size > want.size())
        return "rows past the reference's " + std::to_string(want.size());
    for (std::size_t i = 0; i < got.size; ++i) {
        const std::size_t r = begin + i;
        const bool first = ((got.first_seen[i / 64] >> (i % 64)) & 1) != 0;
        const char *column = nullptr;
        if (got.ip[i] != want.ip[r])
            column = "ip";
        else if (got.target[i] != want.target[r])
            column = "target";
        else if (got.instr[i] != want.instr[r])
            column = "instr";
        else if (got.meta[i] != want.meta[r])
            column = "meta";
        else if (got.site[i] != want.site[r])
            column = "site";
        else if (first != want.first_seen[r])
            column = "first_seen";
        if (column != nullptr)
            return std::string(column) + " differs at row " +
                   std::to_string(r);
    }
    return "";
}

/** @return "" when the site tables equal @p want's, else the first
 *  difference. */
inline std::string
diffSites(const DecodedTrace &want, std::span<const std::uint64_t> ips,
          std::span<const std::uint64_t> cond_occ)
{
    if (ips.size() != want.site_ips.size())
        return std::to_string(ips.size()) + " sites, want " +
               std::to_string(want.site_ips.size());
    for (std::size_t s = 0; s < ips.size(); ++s) {
        if (ips[s] != want.site_ips[s])
            return "site ip differs at site " + std::to_string(s);
        if (cond_occ[s] != want.site_cond_occ[s])
            return "conditional count differs at site " + std::to_string(s);
    }
    return "";
}

/**
 * MemTrace::load of @p path against @p want: every column and site
 * table when the reference decoded the whole trace, else no arena and
 * the reference's error.
 *
 * @return "" when they agree, else the first difference.
 */
inline std::string
diffArena(const DecodedTrace &want, const std::string &path,
          std::size_t block_packets)
{
    std::string error;
    const auto arena =
        sbbt::MemTrace::load(path, {.block_packets = block_packets}, &error);
    if (!want.error.empty()) {
        if (arena != nullptr)
            return "arena loaded; want error '" + want.error + "'";
        if (error != want.error)
            return "arena error '" + error + "', want '" + want.error + "'";
        return "";
    }
    if (arena == nullptr)
        return "arena failed: " + error;
    if (arena->size() != want.size())
        return std::to_string(arena->size()) + " arena rows, want " +
               std::to_string(want.size());
    if (std::string diff = diffRows(want, 0, arena->columns(0, want.size()));
        !diff.empty())
        return "arena " + diff;
    return diffSites(
        want, std::span(arena->siteIpData(), arena->numSites()),
        std::span(arena->siteCondOccData(), arena->numSites()));
}

/**
 * Every block a TraceWindow of @p capacity rows hands out, reading
 * @p block_packets packets per refill, against @p want: exactly the
 * reference's rows, then its error.
 *
 * @return "" when they agree, else the first difference.
 */
inline std::string
diffWindow(const DecodedTrace &want, const std::string &path,
           std::size_t capacity, std::size_t block_packets)
{
    sbbt::TraceWindow window(
        path, {.block_packets = block_packets, .prefetch = false}, capacity);
    std::size_t rows = 0;
    for (sbbt::BranchColumns block = window.next(UINT64_MAX);
         block.size > 0; block = window.next(UINT64_MAX)) {
        if (block.size > capacity)
            return "block of " + std::to_string(block.size) + " rows";
        if (std::string diff = diffRows(want, rows, block); !diff.empty())
            return "window " + diff;
        rows += block.size;
    }
    if (rows != want.size())
        return std::to_string(rows) + " window rows, want " +
               std::to_string(want.size());
    if (window.error() != want.error)
        return "window error '" + window.error() + "', want '" +
               want.error + "'";
    return diffSites(want, window.sites().siteIps(),
                     window.sites().siteCondOccurrences());
}

} // namespace mbp::test

#endif // MBP_TESTS_DECODE_CHECK_HPP
