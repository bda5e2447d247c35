/**
 * @file
 * libFuzzer entry point for the wire-frame surface of the network
 * front end (net/protocol.hh): verifyFrame, then the request parser
 * and the reply parsers, over arbitrary bytes. The input is one frame
 * as the server or client hands it to verifyFrame — everything after
 * the u32 length prefix. The contract under test is "a verdict or a
 * Status, never a crash".
 *
 * The parsers are hardened on their own, not only behind the CRC, so
 * a frame whose CRC does not check out is still parsed (minus its
 * trailing CRC bytes). Otherwise a mutation fuzzer would almost never
 * reach them: any mutated byte breaks the CRC.
 *
 * Built behind -DSAGE_BUILD_FUZZERS=ON; see fuzz/CMakeLists.txt. Seeds
 * live in fuzz/corpus/frame/: one valid frame of each request and
 * reply type, plus a truncated and a bit-flipped frame.
 */

#include <cstddef>
#include <cstdint>

#include "net/protocol.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace sage::net;

    size_t body_size = 0;
    if (verifyFrame(data, size, &body_size) != FrameVerdict::Ok)
        body_size = size >= kFrameCrcBytes ? size - kFrameCrcBytes : 0;

    (void)parseRequestFrame(data, body_size);

    const sage::StatusOr<ReplyHeader> header =
        parseReplyHeader(data, body_size);
    if (!header.ok())
        return 0;
    const uint8_t *payload = data + kReplyHeaderBytes;
    const size_t payload_size = body_size - kReplyHeaderBytes;
    (void)parseReadReplyPayload(payload, payload_size);
    (void)parseOpenReplyPayload(payload, payload_size);
    (void)parseStatReplyPayload(payload, payload_size);
    (void)parseErrorMessage(payload, payload_size);
    return 0;
}
