#include "app/path_models.h"

#include <array>

#include "analysis/compose.h"
#include "app/compose_models.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "core/word_filter.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "memsim/mem_policy.h"
#include "rpc/messages.h"

namespace ilp::app {

namespace {

using enc = core::encrypt_stage<crypto::safer_k64>;
using dec = core::decrypt_stage<crypto::safer_k64>;
using aead_enc = core::aead_encrypt_stage<crypto::aead_cipher>;
using aead_dec = core::aead_decrypt_stage<crypto::aead_cipher>;

// Representative message geometry: a 1 KiB payload behind the RPC reply
// header.  The analyzer's geometry rules are invariant in the payload size
// as long as marshalling pads to the cipher unit, so one exemplar plan
// stands in for the whole family the harness sends.
constexpr std::size_t representative_payload = 1024;
constexpr std::size_t representative_marshalled =
    rpc::reply_payload_offset + representative_payload;

std::vector<analysis::part_info> ilp_parts() {
    const core::message_plan plan =
        core::plan_parts(representative_marshalled);
    std::vector<analysis::part_info> parts;
    for (const core::message_part& p : plan.ilp_order()) {
        if (!p.empty()) parts.push_back({p.offset, p.len});
    }
    return parts;
}

analysis::pipeline_model model(const char* name, const char* site,
                               analysis::pipeline_kind kind,
                               std::vector<analysis::footprint> stages,
                               std::size_t exchange_unit) {
    analysis::pipeline_model m;
    m.name = name;
    m.site = site;
    m.kind = kind;
    m.stages = std::move(stages);
    m.exchange_unit_bytes = exchange_unit;
    return m;
}

}  // namespace

std::vector<analysis::finding> register_app_pipelines(
    analysis::pipeline_registry& registry) {
    using namespace analysis;
    std::vector<finding> all;
    const auto add = [&all, &registry](pipeline_model m) {
        const std::vector<finding> f = registry.add(std::move(m));
        all.insert(all.end(), f.begin(), f.end());
    };
    const std::size_t total =
        core::plan_parts(representative_marshalled).total_bytes;
    // Fused send loops process the parts B, C, A (§3.2.2).  The fused reply
    // receive runs in two linear phases split at the 24-byte header region;
    // the split is a part cut and must clear the same geometry rules as the
    // send plan.
    const auto fused_send = [&add](const char* name, const char* site,
                                   std::vector<footprint> stages,
                                   std::size_t unit) {
        pipeline_model m =
            model(name, site, pipeline_kind::fused, std::move(stages), unit);
        m.out_of_order_parts = true;
        m.parts = ilp_parts();
        add(std::move(m));
    };
    const auto fused_receive = [&add, total](const char* name,
                                             const char* site,
                                             std::vector<footprint> stages,
                                             std::size_t unit) {
        pipeline_model m =
            model(name, site, pipeline_kind::fused, std::move(stages), unit);
        m.parts = {{0, 24}, {24, total - 24}};
        add(std::move(m));
    };
    // Layered baselines: each pass touches the full message once; the
    // analyzer records them for inventory and table-pressure accounting but
    // the fused-only rules (R1/R3 geometry, W3) do not apply.
    const auto layered = [&add](const char* name, const char* site,
                                std::vector<footprint> stages) {
        add(model(name, site, pipeline_kind::layered, std::move(stages), 8));
    };

    // The ILP send path: marshal+encrypt+checksum in one loop.
    using send_loop = core::fused_pipeline<enc, core::checksum_tap8>;
    fused_send("app-send-ilp", "src/app/send_path.h:fill_message_ilp",
               send_loop::footprints(), send_loop::unit_bytes);

    // Early send: the manipulation half runs ahead of buffer space —
    // prepare() encrypts the parts B, C, A into a staging area, and
    // try_flush() checksums on the copy into the ring once space frees up.
    using early_loop = core::fused_pipeline<enc>;
    fused_send("app-send-early", "src/app/early_send.h:early_sender::prepare",
               early_loop::footprints(), early_loop::unit_bytes);

    // The ILP reply receive path: checksum+decrypt+unmarshal fused.
    using recv_loop = core::fused_pipeline<core::checksum_tap8, dec>;
    fused_receive("app-recv-reply-ilp",
                  "src/app/receive_path.h:receive_reply_ilp",
                  recv_loop::footprints(), recv_loop::unit_bytes);

    // Request receive: one linear fused pass over the whole wire image.
    {
        pipeline_model m = model(
            "app-recv-request-ilp", "src/app/receive_path.h:receive_request",
            pipeline_kind::fused, recv_loop::footprints(),
            recv_loop::unit_bytes);
        m.parts = {{0, total}};
        add(std::move(m));
    }

    // The word-filter baseline (bench_ablation_unit_size): an actual chain
    // is built and walked so the registered stages are exactly what the
    // bench runs, footprint virtuals included.  Expect the W1 word-handoff
    // warning on the 8-byte cipher filter — that warning *is* the paper's
    // §2.2 critique of the scheme.
    {
        const std::array<std::byte, crypto::safer_simplified::key_bytes>
            key{};
        const crypto::safer_simplified cipher(key);
        checksum::inet_accumulator acc;
        std::array<std::byte, 4> sink_buf{};
        core::cipher_word_filter<memsim::direct_memory,
                                 crypto::safer_simplified, true>
            enc_filter(cipher);
        core::checksum_word_filter<memsim::direct_memory> sum_filter(acc);
        core::sink_word_filter<memsim::direct_memory> sink(sink_buf);
        enc_filter.set_next(&sum_filter);
        sum_filter.set_next(&sink);
        add(model("app-wordchain-baseline",
                  "bench/bench_ablation_unit_size.cpp:main",
                  pipeline_kind::word_chain, core::chain_footprints(enc_filter),
                  4));
    }

    // Secure (AEAD) paths: the keystream+tag cipher replaces the block
    // cipher inside the same compositions.  The 8-byte clear trailer is
    // outside the fused loops (a separate mini-pass after the body), so the
    // body geometry is unchanged.
    using aead_send_loop = core::fused_pipeline<aead_enc, core::checksum_tap8>;
    fused_send("app-send-secure-ilp",
               "src/app/secure_path.h:fill_message_secure_ilp",
               aead_send_loop::footprints(), aead_send_loop::unit_bytes);
    using aead_recv_loop = core::fused_pipeline<core::checksum_tap8, aead_dec>;
    fused_receive("app-recv-secure-ilp",
                  "src/app/secure_path.h:receive_reply_secure_ilp",
                  aead_recv_loop::footprints(), aead_recv_loop::unit_bytes);
    layered("app-send-secure-layered", "src/app/send_path.h:fill_layered",
            {footprint_of<core::xdr_encode_stage>(), footprint_of<aead_enc>(),
             footprint_of<core::opaque_stage>(),
             footprint_of<core::checksum_tap8>()});
    layered("app-recv-secure-layered",
            "src/app/secure_path.h:receive_reply_secure_layered",
            {footprint_of<core::checksum_tap8>(), footprint_of<aead_dec>(),
             footprint_of<core::xdr_decode_stage>()});

    // Runtime-assembled flow graphs, folded through the composition engine
    // and registered under their graph names.  These are the exact graphs
    // the engine's legality gate admits at flow setup (compose_models.h
    // builds both), so the lint inventory covers the runtime composition
    // space's legal exemplars, not just the hand-audited static paths.
    {
        const secure_params classic{};
        secure_params secure;
        secure.enabled = true;
        secure.flow_secret = 1;
        const auto composed = [&add](const stage_graph& g) {
            add(compose_and_check(g).composed);
        };
        composed(flow_send_graph<crypto::safer_k64>(classic,
                                                    compose_tap::none, 0));
        composed(flow_receive_graph<crypto::safer_k64>(classic,
                                                       compose_tap::none, 0));
        composed(flow_send_graph<crypto::aead_cipher>(secure,
                                                      compose_tap::none, 0));
        composed(flow_receive_graph<crypto::aead_cipher>(secure,
                                                         compose_tap::none,
                                                         0));
        composed(flow_send_graph<crypto::safer_k64>(classic,
                                                    compose_tap::inet2, 0));
    }

    layered("app-send-layered", "src/app/send_path.h:fill_layered",
            {footprint_of<core::xdr_encode_stage>(), footprint_of<enc>(),
             footprint_of<core::opaque_stage>(),
             footprint_of<core::checksum_tap8>()});
    layered("app-recv-reply-layered",
            "src/app/receive_path.h:receive_reply_layered",
            {footprint_of<core::checksum_tap8>(), footprint_of<dec>(),
             footprint_of<core::xdr_decode_stage>()});
    return all;
}

}  // namespace ilp::app
