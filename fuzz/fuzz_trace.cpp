// libFuzzer harness for the adaptation-trace decoder.
//
// io::decode_trace reads the trace inside every checkpoint payload, which
// is untrusted bytes on resume; the contract is: any input yields either a
// valid trace or a structured Status — never a crash, throw, or unbounded
// allocation.
#include <cstddef>
#include <cstdint>

#include "pragma/io/snapshot.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  pragma::io::ByteReader reader(data, size);
  pragma::util::Expected<pragma::amr::AdaptationTrace> trace =
      pragma::io::decode_trace(reader);
  if (trace) {
    // A trace the decoder accepts shares one configuration, so it must
    // re-encode without throwing.
    pragma::io::ByteWriter writer;
    pragma::io::encode_trace(writer, trace.value());
  } else {
    // Error messages must be materializable and size-bounded.
    volatile std::size_t sink = trace.status().to_string().size();
    (void)sink;
  }
  return 0;
}
