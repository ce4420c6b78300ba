#include "nn/parser.hh"

#include <cctype>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "telemetry/tracing.hh"

namespace lergan {

namespace {

/** One DSL token: "<N>c<K>k<S>s", "<N>t...", or "<N>f". */
struct Token {
    char kind = '?';   // 'c', 't' or 'f'
    int count = 0;     // input feature maps / units
    int kernel = 0;    // 0 = unspecified
    int stride = 0;    // 0 = unspecified
};

/** Trailing "t<N>" / "f<N>" terminal marker. */
struct Terminal {
    char kind = '?';
    int count = 0;
};

/** Split a topology string on '-' at paren depth zero. */
std::vector<std::string>
splitTopLevel(const std::string &text)
{
    std::vector<std::string> pieces;
    std::string current;
    int depth = 0;
    for (char c : text) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == '-' && depth == 0) {
            pieces.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    pieces.push_back(current);
    return pieces;
}

/** Parse "<K>k<S>s" into (kernel, stride). */
std::pair<int, int>
parseSpec(const std::string &text, const std::string &where)
{
    const auto k_pos = text.find('k');
    const auto s_pos = text.find('s');
    if (k_pos == std::string::npos || s_pos == std::string::npos ||
        s_pos + 1 != text.size() || k_pos >= s_pos) {
        LERGAN_FATAL("malformed kernel/stride spec '", text, "' in ", where);
    }
    const int kernel = parseInt(text.substr(0, k_pos), where + " kernel");
    const int stride =
        parseInt(text.substr(k_pos + 1, s_pos - k_pos - 1), where + " stride");
    return {kernel, stride};
}

/** Parse a single non-group token such as "512t5k2s" or "784f". */
Token
parseToken(const std::string &text, const std::string &where)
{
    std::size_t i = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
    }
    if (i == 0 || i == text.size())
        LERGAN_FATAL("malformed layer token '", text, "' in ", where);

    Token token;
    token.count = parseInt(text.substr(0, i), where + " channel count");
    token.kind = text[i];
    if (token.kind != 'c' && token.kind != 't' && token.kind != 'f')
        LERGAN_FATAL("unknown layer kind '", text[i], "' in '", text, "'");

    const std::string rest = text.substr(i + 1);
    if (!rest.empty()) {
        if (token.kind == 'f')
            LERGAN_FATAL("FC token '", text, "' cannot carry a k/s spec");
        auto [kernel, stride] = parseSpec(rest, where);
        token.kernel = kernel;
        token.stride = stride;
    }
    return token;
}

/** True when @p text is a terminal marker like "t3" or "f11". */
bool
isTerminal(const std::string &text)
{
    return !text.empty() &&
           (text[0] == 't' || text[0] == 'f' || text[0] == 'c') &&
           text.size() > 1 &&
           std::isdigit(static_cast<unsigned char>(text[1]));
}

/** Expand pieces into a flat token list plus the terminal marker. */
void
tokenize(const std::string &topology, const std::string &where,
         std::vector<Token> &tokens, Terminal &terminal)
{
    const auto pieces = splitTopLevel(topology);
    LERGAN_ASSERT(pieces.size() >= 2, where,
                  ": a topology needs at least one layer and a terminal");
    for (std::size_t p = 0; p < pieces.size(); ++p) {
        const std::string piece = trim(pieces[p]);
        const bool last = (p + 1 == pieces.size());
        if (last) {
            if (!isTerminal(piece)) {
                LERGAN_FATAL(where, ": topology must end in a terminal "
                             "marker like 't3' or 'f1', got '", piece, "'");
            }
            terminal.kind = piece[0];
            terminal.count = parseInt(piece.substr(1), where + " terminal");
            continue;
        }
        if (piece.empty())
            LERGAN_FATAL(where, ": empty layer token");
        if (piece[0] == '(') {
            // "(tok-tok-...)(KkSs)"
            const auto close = piece.find(')');
            LERGAN_ASSERT(close != std::string::npos, where,
                          ": unbalanced parentheses in '", piece, "'");
            const std::string inner = piece.substr(1, close - 1);
            std::string spec_text = piece.substr(close + 1);
            LERGAN_ASSERT(spec_text.size() > 2 && spec_text.front() == '(' &&
                              spec_text.back() == ')',
                          where, ": group '", piece,
                          "' must be followed by a (KkSs) spec");
            spec_text = spec_text.substr(1, spec_text.size() - 2);
            auto [kernel, stride] = parseSpec(spec_text, where);
            for (const auto &sub : split(inner, '-')) {
                Token token = parseToken(trim(sub), where);
                if (token.kernel == 0) {
                    token.kernel = kernel;
                    token.stride = stride;
                }
                tokens.push_back(token);
            }
        } else {
            tokens.push_back(parseToken(piece, where));
        }
    }
}

/**
 * A layer under construction. Channel counts of -1 are flatten
 * placeholders resolved once spatial sizes are known.
 */
struct Proto {
    LayerKind kind = LayerKind::FullyConnected;
    int inCount = -1;
    int outCount = -1;
    int kernel = 1;
    int stride = 1;
    bool flattenIn = false;  ///< FC input = previous layer's out volume
    bool flattenOut = false; ///< FC output = next layer's in volume
    int inSize = 0;          ///< spatial, 0 = unresolved
    int outSize = 0;
    int padLo = -1;
    int padHi = -1;
    int rem = -1;
};

/** Build the proto-layer chain from the token list (see parser.hh). */
std::vector<Proto>
buildProtos(const std::vector<Token> &tokens, const Terminal &terminal,
            const std::string &where)
{
    std::vector<Proto> protos;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &cur = tokens[i];
        const bool next_is_token = i + 1 < tokens.size();
        const char next_kind =
            next_is_token ? tokens[i + 1].kind : terminal.kind;
        const int next_count =
            next_is_token ? tokens[i + 1].count : terminal.count;

        Proto proto;
        if (cur.kind == 'f') {
            proto.kind = LayerKind::FullyConnected;
            proto.inCount = cur.count;
            if (next_kind == 'f') {
                proto.outCount = next_count;
            } else {
                proto.flattenOut = true; // out = next conv's input volume
            }
        } else if (next_kind == 'f') {
            // The conv chain terminates here; this pair is the flatten+FC.
            proto.kind = LayerKind::FullyConnected;
            proto.flattenIn = true;
            proto.outCount = next_count;
        } else {
            proto.kind =
                cur.kind == 'c' ? LayerKind::Conv : LayerKind::TConv;
            proto.inCount = cur.count;
            proto.outCount = next_count;
            LERGAN_ASSERT(cur.kernel > 0 && cur.stride > 0, where,
                          ": conv token ", cur.count, cur.kind,
                          " lacks a kernel/stride spec");
            proto.kernel = cur.kernel;
            proto.stride = cur.stride;
        }
        protos.push_back(proto);
    }
    return protos;
}

/** Solve pad/rem for a conv proto once both spatial sides are known. */
void
solvePadRem(Proto &proto, const std::string &where)
{
    // Conv:  (I + P_lo + P_hi - W) = (O-1) S + R.
    // TConv: (O + P'_lo + P'_hi - W) = (I-1) S' + R.
    // Prefer a remainder that allows symmetric padding; even kernels with
    // "same"-style shapes fall back to asymmetric (P_hi = P_lo + 1).
    const int big = proto.kind == LayerKind::Conv ? proto.inSize
                                                  : proto.outSize;
    const int small = proto.kind == LayerKind::Conv ? proto.outSize
                                                    : proto.inSize;
    int best_rem = -1;
    int best_total = -1;
    for (int rem = 0; rem < proto.stride; ++rem) {
        const int total =
            (small - 1) * proto.stride + rem + proto.kernel - big;
        if (total < 0)
            continue;
        if (total % 2 == 0) { // symmetric wins outright
            best_rem = rem;
            best_total = total;
            break;
        }
        if (best_rem < 0) {
            best_rem = rem;
            best_total = total;
        }
    }
    if (best_rem < 0) {
        LERGAN_FATAL(where, ": no valid padding for ",
                     layerKindName(proto.kind), " layer ", proto.inCount,
                     "->", proto.outCount, " k", proto.kernel, " s",
                     proto.stride, " I=", proto.inSize, " O=",
                     proto.outSize);
    }
    proto.padLo = best_total / 2;
    proto.padHi = best_total - proto.padLo;
    proto.rem = best_rem;
}

/** Resolve a contiguous conv block forward from a known input spatial. */
void
resolveBlockForward(std::vector<Proto> &protos, std::size_t begin,
                    std::size_t end, int in_spatial, const std::string &where)
{
    int spatial = in_spatial;
    for (std::size_t i = begin; i < end; ++i) {
        Proto &proto = protos[i];
        proto.inSize = spatial;
        if (proto.kind == LayerKind::Conv) {
            proto.outSize = (spatial + proto.stride - 1) / proto.stride;
        } else {
            proto.outSize = spatial * proto.stride;
        }
        solvePadRem(proto, where);
        spatial = proto.outSize;
    }
}

/** Resolve a trailing decoder block backward from the item size. */
void
resolveBlockBackward(std::vector<Proto> &protos, std::size_t begin,
                     std::size_t end, int out_spatial,
                     const std::string &where)
{
    int spatial = out_spatial;
    for (std::size_t i = end; i-- > begin;) {
        Proto &proto = protos[i];
        LERGAN_ASSERT(proto.kind == LayerKind::TConv, where,
                      ": decoder blocks resolved backward must be all "
                      "transposed convolutions");
        proto.outSize = spatial;
        proto.inSize = (spatial + proto.stride - 1) / proto.stride;
        solvePadRem(proto, where);
        spatial = proto.inSize;
    }
}

/** Resolve spatial sizes for every conv block of one network. */
void
resolveSpatial(std::vector<Proto> &protos, NetRole role, int item_size,
               const std::string &where)
{
    // Collect maximal conv/tconv runs.
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    for (std::size_t i = 0; i < protos.size();) {
        if (protos[i].kind == LayerKind::FullyConnected) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < protos.size() &&
               protos[j].kind != LayerKind::FullyConnected) {
            ++j;
        }
        blocks.emplace_back(i, j);
        i = j;
    }
    if (blocks.empty())
        return; // pure-FC network (MAGAN discriminator)

    if (role == NetRole::Discriminator) {
        // Discriminators see the item directly; everything flows forward.
        LERGAN_ASSERT(blocks.size() == 1 && blocks[0].first == 0, where,
                      ": discriminator conv layers must form one leading "
                      "block");
        resolveBlockForward(protos, blocks[0].first, blocks[0].second,
                            item_size, where);
        return;
    }

    // Generator: a leading conv block (image-to-image GANs) reads the item
    // size forward; the trailing decoder block is resolved backward from
    // the item size. Both cases may coincide (one block).
    std::size_t next_block = 0;
    if (blocks[0].first == 0) {
        resolveBlockForward(protos, blocks[0].first, blocks[0].second,
                            item_size, where);
        next_block = 1;
    }
    if (next_block < blocks.size()) {
        LERGAN_ASSERT(next_block + 1 == blocks.size() &&
                          blocks[next_block].second == protos.size(),
                      where, ": generator may have at most one decoder "
                      "block after the FC bottleneck");
        resolveBlockBackward(protos, blocks[next_block].first,
                             blocks[next_block].second, item_size, where);
    }
}

/** Turn resolved protos into validated LayerSpec objects. */
std::vector<LayerSpec>
finalize(const std::vector<Proto> &protos, NetRole role, int spatial_dims,
         const std::string &where)
{
    std::vector<LayerSpec> layers;
    layers.reserve(protos.size());
    for (std::size_t i = 0; i < protos.size(); ++i) {
        const Proto &proto = protos[i];
        LayerSpec layer;
        layer.kind = proto.kind;
        layer.spatialDims = spatial_dims;
        layer.name = std::string(netRoleName(role)) + ".l" +
                     std::to_string(i + 1) + "." + layerKindName(proto.kind);
        if (proto.kind == LayerKind::FullyConnected) {
            layer.inSize = layer.outSize = 1;
            layer.kernel = layer.stride = 1;
            layer.pad = layer.padHi = layer.rem = 0;
            if (proto.flattenIn) {
                LERGAN_ASSERT(i > 0, where, ": flatten FC needs a "
                              "predecessor");
                layer.inChannels =
                    static_cast<int>(layers[i - 1].outVolume());
            } else {
                layer.inChannels = proto.inCount;
            }
            if (proto.flattenOut) {
                LERGAN_ASSERT(i + 1 < protos.size(), where,
                              ": flatten-out FC needs a successor");
                const Proto &next = protos[i + 1];
                layer.outChannels = next.inCount *
                    static_cast<int>(ipow(next.inSize, spatial_dims));
            } else {
                layer.outChannels = proto.outCount;
            }
        } else {
            layer.inChannels = proto.inCount;
            layer.outChannels = proto.outCount;
            layer.inSize = proto.inSize;
            layer.outSize = proto.outSize;
            layer.kernel = proto.kernel;
            layer.stride = proto.stride;
            layer.pad = proto.padLo;
            layer.padHi = proto.padHi;
            layer.rem = proto.rem;
        }
        layer.check();
        layers.push_back(layer);
    }
    return layers;
}

/** Full pipeline for one network string. */
std::vector<LayerSpec>
parseNet(const std::string &topology, NetRole role, int item_size,
         int spatial_dims, const std::string &where)
{
    std::vector<Token> tokens;
    Terminal terminal;
    tokenize(topology, where, tokens, terminal);
    auto protos = buildProtos(tokens, terminal, where);
    resolveSpatial(protos, role, item_size, where);
    return finalize(protos, role, spatial_dims, where);
}

} // namespace

GanModel
parseGan(const std::string &name, const std::string &generator,
         const std::string &discriminator, int item_size, int spatial_dims)
{
    Span span("parse");
    GanModel model;
    model.name = name;
    model.itemSize = item_size;
    model.spatialDims = spatial_dims;
    model.generator = parseNet(generator, NetRole::Generator, item_size,
                               spatial_dims, name + ".G");
    model.discriminator = parseNet(discriminator, NetRole::Discriminator,
                                   item_size, spatial_dims, name + ".D");
    model.check();
    return model;
}

} // namespace lergan
