/**
 * @file
 * BTT text trace reader/writer implementation.
 */
#include "cbp5/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

namespace cbp5
{

namespace
{

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

void
appendHex(std::string &out, std::uint64_t v)
{
    char buf[20];
    auto res = std::to_chars(buf, buf + sizeof buf, v, 16);
    out += "0x";
    out.append(buf, res.ptr);
}

/** Bytes of the shortest node or edge line: "node 0 0x0 0\n". */
constexpr std::uint64_t kMinLineBytes = 13;

/** Worst-case expansion of the supported codecs (deflate, ~1032:1). */
constexpr std::uint64_t kMaxCodecExpansion = 1032;

/** Lines assumed for an input whose size cannot be read (a pipe, say):
 *  far more than the node or edge count of any real trace. */
constexpr std::uint64_t kUnknownSizeLines = std::uint64_t(1) << 20;

/**
 * Most node or edge lines the file at @p path can hold: its size over
 * the shortest line, times the codecs' worst-case expansion when
 * compressed. Bounds the header's counts, so a header that claims more
 * nodes or edges than the file has cannot size an allocation.
 */
std::uint64_t
inputLineBound(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec)
        return kUnknownSizeLines;
    if (mbp::compress::detectCodec(path) == mbp::compress::Codec::kRaw)
        return bytes / kMinLineBytes;
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() / kMaxCodecExpansion;
    return std::min<std::uint64_t>(bytes, limit) * kMaxCodecExpansion /
           kMinLineBytes;
}

/** In-place tokenizer: splits on single spaces. */
class Tokens
{
  public:
    explicit Tokens(const std::string &line) : line_(line) {}

    bool
    next(std::string_view &tok)
    {
        if (pos_ >= line_.size())
            return false;
        std::size_t end = line_.find(' ', pos_);
        if (end == std::string::npos)
            end = line_.size();
        tok = std::string_view(line_).substr(pos_, end - pos_);
        pos_ = end + 1;
        return true;
    }

    bool
    nextU64(std::uint64_t &v, int base = 10)
    {
        std::string_view tok;
        if (!next(tok))
            return false;
        if (base == 16 && tok.size() > 2 && tok[0] == '0' && tok[1] == 'x')
            tok.remove_prefix(2);
        auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v,
                                   base);
        return res.ec == std::errc() && res.ptr == tok.data() + tok.size();
    }

  private:
    const std::string &line_;
    std::size_t pos_ = 0;
};

} // namespace

BttWriter::BttWriter(std::string path) : path_(std::move(path)) {}

void
BttWriter::append(const mbp::Branch &branch, std::uint32_t instr_gap)
{
    std::uint32_t &node_slot = node_of_ip_[branch.ip()];
    if (node_slot == 0) {
        node_ips_.push_back(branch.ip());
        node_opcodes_.push_back(branch.opcode().bits());
        node_slot = static_cast<std::uint32_t>(node_ips_.size()); // 1-based
    }
    std::uint32_t node_id = node_slot - 1;

    // An edge is (source node, outcome, target, gap). Including the gap
    // keeps instruction counts bit-exact across formats, so MBPlib and the
    // framework compute identical MPKI from converted traces (§VII-C).
    std::uint64_t key = mbp::mix64(
        branch.ip() ^ (branch.target() * 0x9e3779b97f4a7c15ull) ^
        (std::uint64_t(instr_gap) << 1) ^
        (branch.isTaken() ? 0x5851f42d4c957f2dull : 0));
    std::uint32_t &edge_slot = edge_of_key_[key];
    if (edge_slot == 0) {
        edge_src_.push_back(node_id);
        edges_.push_back({branch, instr_gap});
        edge_slot = static_cast<std::uint32_t>(edges_.size()); // 1-based
    }
    sequence_.push_back(edge_slot - 1);
    instruction_count_ += instr_gap + 1;
}

bool
BttWriter::close()
{
    if (closed_)
        return error_.empty();
    closed_ = true;
    auto out = mbp::compress::openOutput(path_, -1);
    if (!out) {
        error_ = "cannot create " + path_;
        return false;
    }
    std::string text;
    text.reserve(1 << 20);
    text += "BTT v1\ninstruction_count ";
    appendU64(text, instruction_count_);
    text += "\nbranch_count ";
    appendU64(text, sequence_.size());
    text += "\nnode_count ";
    appendU64(text, node_ips_.size());
    text += "\nedge_count ";
    appendU64(text, edges_.size());
    text += "\n";
    for (std::size_t i = 0; i < node_ips_.size(); ++i) {
        text += "node ";
        appendU64(text, i);
        text += " ";
        appendHex(text, node_ips_[i]);
        text += " ";
        appendU64(text, node_opcodes_[i]);
        text += "\n";
        if (text.size() > (1 << 20)) {
            if (!out->write(text))
                break;
            text.clear();
        }
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        text += "edge ";
        appendU64(text, i);
        text += " ";
        appendU64(text, edge_src_[i]);
        text += edges_[i].branch.isTaken() ? " T " : " N ";
        appendHex(text, edges_[i].branch.target());
        text += " ";
        appendU64(text, edges_[i].instr_gap);
        text += "\n";
        if (text.size() > (1 << 20)) {
            if (!out->write(text))
                break;
            text.clear();
        }
    }
    text += "----\n";
    for (std::uint32_t id : sequence_) {
        appendU64(text, id);
        text += "\n";
        if (text.size() > (1 << 20)) {
            if (!out->write(text))
                break;
            text.clear();
        }
    }
    if (!out->write(text) || !out->close())
        error_ = "write error on " + path_;
    return error_.empty();
}

BttReader::BttReader(const std::string &path)
{
    input_ = mbp::compress::openInput(path);
    if (!input_) {
        error_ = "cannot open " + path;
        return;
    }
    bool ok = false;
    try {
        ok = parseHeader(inputLineBound(path));
    } catch (const std::exception &) {
        // std::stoull throws on malformed numbers; surface it as a parse
        // error like any other corruption.
        ok = false;
    }
    if (!ok && error_.empty())
        error_ = "malformed BTT header in " + path;
}

bool
BttReader::parseHeader(std::uint64_t max_lines)
{
    if (!input_->getLine(line_) || line_ != "BTT v1")
        return false;
    std::uint64_t node_count = 0, edge_count = 0;
    auto read_kv = [&](const char *key, std::uint64_t &v) {
        if (!input_->getLine(line_))
            return false;
        Tokens tok(line_);
        std::string_view word;
        return tok.next(word) && word == key && tok.nextU64(v);
    };
    if (!read_kv("instruction_count", instruction_count_) ||
        !read_kv("branch_count", branch_count_) ||
        !read_kv("node_count", node_count) ||
        !read_kv("edge_count", edge_count))
        return false;
    if (node_count > max_lines || edge_count > max_lines) {
        error_ = "BTT header claims " + std::to_string(node_count) +
                 " nodes and " + std::to_string(edge_count) +
                 " edges, more than the input can hold";
        return false;
    }

    // Graph parsing in the style of the real BT9 reader: one
    // istringstream per line, std::stoull for numbers, strings by value.
    std::vector<std::uint64_t> node_ips(node_count);
    std::vector<std::uint8_t> node_opcodes(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
        if (!input_->getLine(line_))
            return false;
        std::istringstream iss(line_);
        std::string word, ip_str, opcode_str;
        std::uint64_t id;
        if (!(iss >> word >> id >> ip_str >> opcode_str) || word != "node" ||
            id >= node_count)
            return false;
        if (ip_str.size() < 3 || ip_str[0] != '0' || ip_str[1] != 'x')
            return false;
        node_ips[id] = std::stoull(ip_str, nullptr, 16);
        node_opcodes[id] =
            static_cast<std::uint8_t>(std::stoull(opcode_str));
    }
    edges_.reserve(edge_count);
    for (std::uint64_t i = 0; i < edge_count; ++i) {
        if (!input_->getLine(line_))
            return false;
        std::istringstream iss(line_);
        std::string word, dir, target_str;
        std::uint64_t id, src, gap;
        if (!(iss >> word >> id >> src >> dir >> target_str >> gap) ||
            word != "edge" || src >= node_count)
            return false;
        EdgeInfo &info = edges_[id];
        info.branch = mbp::Branch{
            node_ips[src], std::stoull(target_str, nullptr, 16),
            mbp::OpCode(node_opcodes[src]), dir == "T"};
        info.instr_gap = static_cast<std::uint32_t>(gap);
    }
    if (!input_->getLine(line_) || line_ != "----")
        return false;
    return true;
}

bool
BttReader::next(EdgeInfo &out)
{
    if (!error_.empty())
        return false;
    if (!input_->getLine(line_)) {
        if (input_->failed())
            error_ = "corrupt compressed stream";
        else if (delivered_ != branch_count_)
            error_ = "trace ended early";
        return false;
    }
    // Per-record work mirroring the real framework: a stream extraction
    // per line and a hashed metadata lookup per branch.
    std::istringstream iss(line_);
    std::uint64_t id = 0;
    if (!(iss >> id)) {
        error_ = "malformed sequence line: " + line_;
        return false;
    }
    auto it = edges_.find(id);
    if (it == edges_.end()) {
        error_ = "sequence references unknown edge " + std::to_string(id);
        return false;
    }
    out = it->second;
    ++delivered_;
    return true;
}

} // namespace cbp5
