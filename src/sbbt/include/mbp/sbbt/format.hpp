/**
 * @file
 * SBBT v1.0.0 on-disk format: header and packet codecs (paper §IV-C,
 * Figs. 1 and 2).
 *
 * Header (24 bytes / 192 bits):
 *   bytes 0-4   signature "SBBT\n"
 *   bytes 5-7   major, minor, patch version (u8 each)
 *   bytes 8-15  u64 LE: instructions executed during tracing (all kinds)
 *   bytes 16-23 u64 LE: branches contained in the trace
 *
 * Packet (16 bytes / 128 bits), two u64 LE blocks:
 *   block 1: bits 0-3 opcode | bits 4-10 reserved | bit 11 outcome |
 *            bits 12-63 branch IP (52 most significant bits)
 *   block 2: bits 0-11 instructions since the previous branch (<= 4095) |
 *            bits 12-63 target IP (52 most significant bits)
 *
 * Addresses are recovered with a 12-bit arithmetic shift, which
 * sign-extends 52-bit virtual addresses to the 64-bit canonical form used
 * by x86-64 and ARMv8-A LVA.
 *
 * Validity rules (branchIsValid(), the one place they are written):
 *   1. A non-conditional branch must be taken.
 *   2. A conditional indirect branch that is not taken has a null target.
 *
 * Packet decode is inline (unpackPacket(), packetFault()), so the bulk
 * column decode (sbbt::SiteDecoder) and the packet-at-a-time reader
 * (SbbtReader::next()) check packets with the same code, in their own
 * loops.
 */
#ifndef MBP_SBBT_FORMAT_HPP
#define MBP_SBBT_FORMAT_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "mbp/sbbt/branch.hpp"

namespace mbp::sbbt
{

/** The 5 signature bytes that start every SBBT file. */
inline constexpr char kSignature[5] = {'S', 'B', 'B', 'T', '\n'};
/** Size of the serialized header in bytes. */
inline constexpr std::size_t kHeaderSize = 24;
/** Size of one serialized branch packet in bytes. */
inline constexpr std::size_t kPacketSize = 16;
/** Maximum encodable distance between consecutive branches. */
inline constexpr std::uint32_t kMaxInstrGap = 4095;

/** Decoded SBBT header. */
struct Header
{
    std::uint8_t major = 1;
    std::uint8_t minor = 0;
    std::uint8_t patch = 0;
    /** Instructions (branch and non-branch) executed while tracing. */
    std::uint64_t instruction_count = 0;
    /** Branch packets in the trace. */
    std::uint64_t branch_count = 0;
};

/** Serializes @p header into its 24-byte representation. */
std::array<std::uint8_t, kHeaderSize> encodeHeader(const Header &header);

/**
 * Parses a 24-byte header.
 *
 * @param bytes Raw header bytes.
 * @param out   Receives the decoded header.
 * @param error Receives a message on failure (optional).
 * @return False on bad signature or unsupported major version.
 */
bool decodeHeader(const std::uint8_t *bytes, Header &out,
                  std::string *error = nullptr);

/** A decoded packet: the branch plus its distance to the previous branch. */
struct PacketData
{
    Branch branch;
    /** Non-branch instructions executed since the previous branch. */
    std::uint32_t instr_gap = 0;
};

/**
 * Serializes one branch packet.
 *
 * @pre @p data satisfies the validity rules, the gap fits in 12 bits, and
 *      both addresses survive the 52-bit round trip (canonical form).
 */
std::array<std::uint8_t, kPacketSize> encodePacket(const PacketData &data);

/**
 * @return Whether @p addr round-trips through the 52-bit encoding, i.e. its
 *         top 12 bits are the sign extension of bit 51.
 */
constexpr bool
addressIsCanonical(std::uint64_t addr)
{
    auto s = static_cast<std::int64_t>(addr << 12) >> 12;
    return static_cast<std::uint64_t>(s) == addr;
}

/**
 * Checks the two packet validity rules for a branch.
 *
 * @return True when @p b may legally appear in an SBBT trace.
 */
constexpr bool
branchIsValid(const Branch &b)
{
    if (!b.opcode().valid())
        return false;
    if (!b.isConditional() && !b.isTaken())
        return false; // rule 1
    if (b.isConditional() && b.isIndirect() && !b.isTaken() &&
        b.target() != 0)
        return false; // rule 2
    return true;
}

/**
 * Why a decoded packet cannot appear in an SBBT trace.
 *
 * @return nullptr when @p b is valid, else the error every decoder of the
 *         suite reports for it.
 */
constexpr const char *
packetFault(const Branch &b)
{
    if (branchIsValid(b)) [[likely]]
        return nullptr;
    if (!b.opcode().valid())
        return "undefined opcode base type 0b11";
    return "packet violates SBBT validity rules";
}

/** @return The little-endian u64 at @p p. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof v);
        return v;
    } else {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(p[i]) << (8 * i);
        return v;
    }
}

/**
 * Unpacks the 16 packet bytes at @p bytes without checking them: the
 * addresses come back sign-extended from their 52 stored bits. Pair it
 * with packetFault() (decodePacket() does).
 */
inline PacketData
unpackPacket(const std::uint8_t *bytes)
{
    const std::uint64_t block1 = loadLe64(bytes);
    const std::uint64_t block2 = loadLe64(bytes + 8);
    const auto address = [](std::uint64_t block) {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(block) >>
                                          12);
    };
    return PacketData{
        Branch{address(block1), address(block2),
               OpCode(static_cast<std::uint8_t>(block1 & 0xf)),
               ((block1 >> 11) & 1) != 0},
        static_cast<std::uint32_t>(block2 & 0xfff)};
}

/**
 * Deserializes one branch packet.
 *
 * @param bytes 16 packet bytes.
 * @param out   Receives the decoded data.
 * @param error Receives a message on failure (optional).
 * @return False when the packet violates the format's validity rules.
 */
inline bool
decodePacket(const std::uint8_t *bytes, PacketData &out,
             std::string *error = nullptr)
{
    out = unpackPacket(bytes);
    const char *fault = packetFault(out.branch);
    if (fault == nullptr)
        return true;
    if (error != nullptr)
        *error = fault;
    return false;
}

} // namespace mbp::sbbt

#endif // MBP_SBBT_FORMAT_HPP
