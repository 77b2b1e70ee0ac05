/**
 * @file
 * SBBT header/packet codec implementation.
 */
#include "mbp/sbbt/format.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace mbp::sbbt
{

namespace
{

// Little-endian 64-bit store, the counterpart of loadLe64(). On
// little-endian hosts (the common case) it compiles to a single move; the
// byte loop keeps big-endian hosts correct.
void
encode64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

} // namespace

std::array<std::uint8_t, kHeaderSize>
encodeHeader(const Header &header)
{
    std::array<std::uint8_t, kHeaderSize> out{};
    std::memcpy(out.data(), kSignature, 5);
    out[5] = header.major;
    out[6] = header.minor;
    out[7] = header.patch;
    encode64(out.data() + 8, header.instruction_count);
    encode64(out.data() + 16, header.branch_count);
    return out;
}

bool
decodeHeader(const std::uint8_t *bytes, Header &out, std::string *error)
{
    if (std::memcmp(bytes, kSignature, 5) != 0) {
        if (error)
            *error = "bad SBBT signature";
        return false;
    }
    out.major = bytes[5];
    out.minor = bytes[6];
    out.patch = bytes[7];
    if (out.major != 1) {
        if (error)
            *error = "unsupported SBBT major version " +
                     std::to_string(out.major);
        return false;
    }
    out.instruction_count = loadLe64(bytes + 8);
    out.branch_count = loadLe64(bytes + 16);
    return true;
}

std::array<std::uint8_t, kPacketSize>
encodePacket(const PacketData &data)
{
    const Branch &b = data.branch;
    assert(branchIsValid(b) && "branch violates SBBT validity rules");
    assert(data.instr_gap <= kMaxInstrGap && "instruction gap overflow");
    assert(addressIsCanonical(b.ip()) && "IP not canonical 52-bit");
    assert(addressIsCanonical(b.target()) && "target not canonical 52-bit");

    std::uint64_t block1 = (b.ip() << 12) |
                           (b.isTaken() ? (std::uint64_t(1) << 11) : 0) |
                           b.opcode().bits();
    std::uint64_t block2 = (b.target() << 12) | data.instr_gap;
    std::array<std::uint8_t, kPacketSize> out;
    encode64(out.data(), block1);
    encode64(out.data() + 8, block2);
    return out;
}

} // namespace mbp::sbbt
