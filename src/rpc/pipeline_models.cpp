#include "rpc/pipeline_models.h"

#include "checksum/crc32.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/stage.h"
#include "crypto/safer_k64.h"

namespace ilp::rpc {

namespace {

analysis::pipeline_model fused_model(
    const char* name, const char* site,
    std::vector<analysis::footprint> stages, std::size_t exchange_unit) {
    analysis::pipeline_model m;
    m.name = name;
    m.site = site;
    m.kind = analysis::pipeline_kind::fused;
    m.stages = std::move(stages);
    m.exchange_unit_bytes = exchange_unit;
    return m;
}

}  // namespace

std::vector<analysis::finding> register_rpc_pipelines(
    analysis::pipeline_registry& registry) {
    using namespace analysis;
    using enc = core::encrypt_stage<crypto::safer_k64>;
    using dec = core::decrypt_stage<crypto::safer_k64>;
    std::vector<finding> all;
    const auto take = [&all](std::vector<finding> f) {
        all.insert(all.end(), f.begin(), f.end());
    };

    // Trailer framing: linear front-to-back send, checksum tap fused with
    // encryption.
    using trailer_send = core::fused_pipeline<enc, core::checksum_tap8>;
    take(registry.add(fused_model(
        "rpc-trailer-send", "src/rpc/trailer.h:make_trailer_source",
        trailer_send::footprints(), trailer_send::unit_bytes)));

    using trailer_recv = core::fused_pipeline<core::checksum_tap8, dec>;
    take(registry.add(fused_model(
        "rpc-trailer-recv", "src/rpc/trailer.h:read_trailer",
        trailer_recv::footprints(), trailer_recv::unit_bytes)));

    // Trailer framing with CRC-32 integrity: the ordering-constrained tap
    // is legal here *because* the schedule is linear — the analyzer only
    // fires R1-ordering under an out-of-order part plan.
    using trailer_crc = core::fused_pipeline<enc, core::crc32_tap>;
    take(registry.add(fused_model(
        "rpc-trailer-crc-send", "src/rpc/trailer.h:make_trailer_source",
        trailer_crc::footprints(), trailer_crc::unit_bytes)));

    // Header-framed reply marshalling: the header words stream through the
    // gather's xdr_words transform (4-byte units, no ordering constraint).
    using header_marshal = core::fused_pipeline<core::xdr_encode_stage>;
    take(registry.add(fused_model(
        "rpc-reply-header-marshal", "src/rpc/messages.h:make_reply_source",
        header_marshal::footprints(), header_marshal::unit_bytes)));

    return all;
}

}  // namespace ilp::rpc
